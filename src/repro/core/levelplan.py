"""Level planner: per-segment modulus-chain tuning.

The paper's client-optimized thesis is to never pay for more crypto than a
computation step needs.  This pass applies that idea to the modulus chain
of a traced ciphertext program (Cheetah-style per-layer parameter tuning,
see PAPERS.md): every residue limb kept alive past its usefulness taxes
*every* downstream NTT row, key-switch decompose, and serialized byte, so
the planner drops limbs the moment no consumer needs their noise headroom.

Two cooperating analyses over the IR DAG:

1. **Noise-driven level planning** (BFV) — a reverse walk sums the noise
   bits every node's downstream consumers will spend
   (:meth:`repro.hecore.noise.NoiseEstimator.node_cost_bits`, the table the
   forward budget prediction spends from); a forward rebuild then inserts
   the cheapest legal ``mod_switch`` frontier eagerly: at each drop site,
   trailing limbs whose headroom exceeds the remaining spend (plus
   :data:`SLACK_BITS`) are switched away.  CKKS uses the level/scale
   analog: limbs beyond the downstream rescale depth drop via the
   scale-preserving ``drop_modulus`` as long as the coefficient magnitude
   still fits.  Levels come from the one per-node rule,
   :func:`repro.core.ir.level_after`.
2. **Per-segment entry trimming** — ``recrypt_boundary`` nodes split the
   program into client-refresh segments.  Each downstream segment enters
   on a trimmed chain: the noise spend bound meets a
   :mod:`repro.core.paramsearch` workload-profile bound (the same model
   that sizes whole parameter sets).

The planner preserves decrypted values exactly: BFV mod-switch moves noise,
not plaintext, and CKKS ``drop_modulus`` removes CRT residues without
touching the scale.  Binary operands are re-aligned with explicit switches
so every emitted program is level-monotone.  The result is a contract for
one modulus chain (:attr:`LevelPlan.chain`):
:meth:`repro.core.ir.ScheduledProgram.run` refuses any other, so every
planned switch executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core import paramsearch
from repro.core.ir import ENTRY_KINDS, IrNode, IrProgram, Level, level_after
from repro.hecore.noise import (
    MOD_SWITCH_GUARD_BITS,
    NoiseEstimator,
    SAFETY_BITS,
)
from repro.hecore.params import SchemeType

#: Node kinds after which an eager limb drop is considered.  Chosen to sit
#: at coefficient-form reduction points (key-switch sums, ct-ct multiplies,
#: fresh entries) so the NTT-residency pass keeps its plain-multiply chains.
DROP_SITE_KINDS = ENTRY_KINDS | {"rotate_sum", "keyswitch_sum"}

#: Margin kept above the modeled downstream spend before a BFV drop.
SLACK_BITS = SAFETY_BITS + 1.0

#: CKKS coefficient-magnitude guard: live bits kept above the scale stack.
CKKS_VALUE_GUARD_BITS = 20


@dataclass
class SegmentPlan:
    """One client-refresh segment's re-planned entry chain."""

    index: int
    full_limbs: int
    entry_limbs: int
    spend_bits: float               # modeled noise the segment consumes


@dataclass
class LevelPlan:
    """What the planner did — wired into ScheduleReport and CostLedger."""

    #: The data-modulus chain the plan was made for; the only chain
    #: :meth:`repro.core.ir.ScheduledProgram.run` executes it on.
    chain: Tuple[int, ...] = ()
    limb_drops: int = 0             # eager drops inserted at drop sites
    align_switches: int = 0         # switches inserted to level-match operands
    replans: int = 0                # segments entered below the full chain
    segments: List[SegmentPlan] = field(default_factory=list)
    limb_rows_before: int = 0       # static limbs-live integral, planner off
    limb_rows_after: int = 0        # same integral over the planned program
    predicted_unsafe: int = 0       # outputs the noise model flags as unsafe

    def describe(self) -> str:
        saved = self.limb_rows_before - self.limb_rows_after
        return (f"{self.limb_drops} limb drop(s), "
                f"{self.align_switches} align switch(es), "
                f"{self.replans} segment replan(s), "
                f"{saved} limb-row(s) saved")


def _downstream(program: IrProgram, cost) -> Dict[int, float]:
    """Largest sum of *cost(node)* over any consumer path ahead of each
    live node.  Crypto boundaries cut the propagation: a value feeding only
    a ``decrypt``/``recrypt_boundary`` just has to stay decryptable."""
    nodes = program.nodes
    live = program.live_set()
    consumers = program.consumers(live)
    ahead: Dict[int, float] = {}
    for nid in sorted(live, reverse=True):      # emission order = topological
        ahead[nid] = max(
            (cost(nodes[c]) + ahead[c] for c in consumers.get(nid, ())
             if nodes[c].kind not in ("decrypt", "recrypt_boundary")),
            default=0)
    return ahead


def _segment_ids(program: IrProgram) -> Dict[int, int]:
    """Client-refresh segment index per node (recrypt boundaries +1)."""
    seg: Dict[int, int] = {}
    for nid, node in enumerate(program.nodes):
        base = max((seg[a] for a in node.deps()), default=0)
        seg[nid] = base + (1 if node.kind == "recrypt_boundary" else 0)
    return seg


def _segment_profile(program: IrProgram, seg: Dict[int, int], index: int,
                     t_bits: int, slots: int) -> paramsearch.WorkloadProfile:
    """A paramsearch workload profile summarizing one segment's op mix."""
    nodes = program.nodes
    live = program.live_set()
    rotations = 0
    fan_in = 1
    span_rotations: Set[Tuple[int, int]] = set()
    plain_depth: Dict[int, int] = {}
    ct_depth: Dict[int, int] = {}
    for nid in sorted(live):
        if seg.get(nid) != index:
            continue
        node = nodes[nid]
        deps = [a for a in node.args if nodes[a].kind != "const"]
        p = max((plain_depth.get(a, 0) for a in deps), default=0)
        c = max((ct_depth.get(a, 0) for a in deps), default=0)
        if node.kind == "rotate":
            rotations += 1
        elif node.kind == "rotate_sum":
            rotations += max(1, math.ceil(math.log2(max(node.width, 2))))
            fan_in = max(fan_in, node.width)
        elif node.kind == "keyswitch_sum":
            # Sums over one source share its rotations: each distinct
            # one is counted once, as its traced ``rotate`` node was.
            steps = {(node.args[i], s) for s, i, _ in node.terms if s}
            rotations += len(steps - span_rotations)
            span_rotations |= steps
            fan_in = max(fan_in, len(node.terms))
            p += bool(node.weights())
        elif node.kind == "mul":
            if any(nodes[a].kind == "const" for a in node.args):
                p += 1
            else:
                c += 1
        plain_depth[nid] = p
        ct_depth[nid] = c
    return paramsearch.WorkloadProfile(
        value_bits=max(2, t_bits // 2),
        fan_in=max(fan_in, 1),
        rotations=rotations,
        plain_mult_depth=max(1, max(plain_depth.values(), default=1)),
        ct_mult_depth=max(ct_depth.values(), default=0),
        min_slots=max(1, slots),
    )


class _Planner:
    """Single forward rebuild of the program with eager drop frontiers."""

    def __init__(self, program: IrProgram, params, plan: LevelPlan):
        self.src = program
        self.params = params
        self.scheme = params.scheme
        self.plan = plan
        self.limb_bits = [p.bit_length() for p in plan.chain]
        self.full = len(self.limb_bits)
        self.out = IrProgram(slots=program.slots)
        nodes = program.nodes
        if self.scheme is SchemeType.BFV:
            # Noise bits every node's consumers will still spend on it.
            self.estimator = est = NoiseEstimator(params)
            self.ahead = _downstream(
                program, lambda node: est.node_cost_bits(node, nodes))
        else:
            # The CKKS analog: rescale depth still ahead of a node.
            self.estimator = None
            self.scale_bits = max(1.0, math.log2(max(2.0, params.scale)))
            self.ahead = _downstream(
                program, lambda node: int(node.kind == "rescale"))
        self.seg = _segment_ids(program)
        self.live_set = program.live_set()
        # Values about to cross a boundary or leave the program: dropping
        # there shrinks the download even when no compute follows.
        self.pre_boundary = set(program.outputs.values()) | {
            a for nid in self.live_set for a in nodes[nid].args
            if nodes[nid].kind in ("decrypt", "recrypt_boundary")
        }

    # ------------------------------------------------------------ plumbing
    def _emit(self, node: IrNode) -> int:
        self.out.nodes.append(node)
        return len(self.out.nodes) - 1

    # ------------------------------------------------------------ dropping
    def _drop_chain(self, new_id: int, drops: int) -> int:
        """Switch *new_id* down *drops* limbs; returns the last switch."""
        for _ in range(drops):
            new_id = self._emit(IrNode("mod_switch", (new_id,), planned=True))
        return new_id

    def _droppable(self, nid: int, level: Level, floor_bits: float) -> int:
        """How many trailing limbs node *nid*'s value can legally shed."""
        live = self.full - level[0]
        bits = float(sum(self.limb_bits[:live]))
        target = live
        while target > 1:
            after = bits - self.limb_bits[target - 1]
            if after < floor_bits:
                break
            if self.estimator is not None:
                ceiling = (after - self.estimator.t_bits
                           - self.estimator.log_n - MOD_SWITCH_GUARD_BITS)
                if ceiling < self.ahead[nid] + SLACK_BITS:
                    break
            elif (target - 1 < 1 + self.ahead[nid]
                    or after < level[1] * self.scale_bits
                    + CKKS_VALUE_GUARD_BITS):
                break
            bits = after
            target -= 1
        return live - target

    def _entry_floor_bits(self, nid: int) -> float:
        """Paramsearch bound on a recrypt segment's entry chain (bits);
        records the segment."""
        t_bits = self.estimator.t_bits
        profile = _segment_profile(self.src, self.seg, self.seg[nid],
                                   t_bits, self.src.slots)
        self.plan.segments.append(SegmentPlan(
            index=self.seg[nid], full_limbs=self.full, entry_limbs=self.full,
            spend_bits=round(self.ahead[nid], 2)))
        return float(2 * t_bits + paramsearch.FRESH_NOISE_BITS
                     + paramsearch.SAFETY_MARGIN_BITS
                     + paramsearch.noise_cost_bits(profile, t_bits,
                                                   self.params.poly_degree))

    # ------------------------------------------------------------- rebuild
    def run(self) -> Tuple[IrProgram, LevelPlan]:
        nodes = self.src.nodes
        plan = self.plan
        new_id: Dict[int, int] = {}
        level: Dict[int, Optional[Level]] = {}
        for nid, node in enumerate(nodes):
            if nid not in self.live_set:
                continue        # live_set is dependency-closed over outputs
            if node.kind == "const":
                new_id[nid], level[nid] = self._emit(replace(node)), None
                continue
            args, operands = self._aligned_args(node, new_id, level)
            nid2 = self._emit(node.remapped(args, new_id))
            lv = level_after(node, self.scheme, operands)
            # mod_switch rows are bookkeeping (no NTT/key-switch work):
            # count only the limbs real compute nodes touch, so the
            # before/after delta reflects saved kernel work.
            if node.kind not in ("mod_switch", "decrypt"):
                plan.limb_rows_before += self.full
                plan.limb_rows_after += self.full - lv[0]
            replan = (node.kind == "recrypt_boundary"
                      and self.estimator is not None)
            floor_bits = self._entry_floor_bits(nid) if replan else 0.0
            if node.kind in DROP_SITE_KINDS or nid in self.pre_boundary:
                drops = self._droppable(nid, lv, floor_bits)
                nid2 = self._drop_chain(nid2, drops)
                lv = (lv[0] + drops, lv[1])
                plan.limb_drops += drops
            if replan:
                plan.segments[-1].entry_limbs = self.full - lv[0]
                plan.replans += 1 if lv[0] else 0
            new_id[nid], level[nid] = nid2, lv
        for name, nid in self.src.outputs.items():
            self.out.outputs[name] = new_id[nid]
        return self.out, plan

    def _aligned_args(self, node: IrNode, new_id: Dict[int, int],
                      level: Dict[int, Optional[Level]]
                      ) -> Tuple[Tuple[int, ...], List[Level]]:
        """Map args, level-matching the ciphertext operands of a binary op
        or a key-switch sum; returns them with their aligned levels."""
        operands = [level[a] for a in node.args if level[a] is not None]
        align = (node.kind in ("add", "sub", "mul", "keyswitch_sum")
                 and len(operands) >= 2)
        target = max((lv[0] for lv in operands), default=0)
        args: List[int] = []
        aligned: List[Level] = []
        for a in node.args:
            mapped = new_id[a]
            if align and level[a][0] < target:
                gap = target - level[a][0]
                mapped = self._drop_chain(mapped, gap)
                self.plan.align_switches += gap
            args.append(mapped)
            if level[a] is not None:
                aligned.append((target, level[a][1]) if align else level[a])
        return tuple(args), aligned


def plan_levels(program: IrProgram, params) -> Tuple[IrProgram, LevelPlan]:
    """Run the level planner; returns the rewritten program and its plan
    (the program unchanged when the chain has a single limb)."""
    plan = LevelPlan(chain=params.data_base.moduli)
    if len(plan.chain) < 2:
        return program, plan
    planner = _Planner(program, params, plan)
    out, plan = planner.run()
    if planner.estimator is not None:
        plan.predicted_unsafe = sum(
            not est.is_safe()
            for est in planner.estimator.budget_after(out).values()
            if est is not None)
    return out, plan
