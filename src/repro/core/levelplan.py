"""Level planner: per-program modulus-chain tuning.

The paper's client-optimized thesis is to never pay for more crypto than a
computation step needs.  This pass applies that idea to the modulus chain
of a traced ciphertext program (Cheetah-style per-layer parameter tuning,
see PAPERS.md): every residue limb kept alive past its usefulness taxes
*every* downstream NTT row, key-switch decompose, and serialized byte, so
the planner drops limbs the moment no consumer needs their noise headroom.

**Noise-driven level planning** (BFV): a reverse walk sums the noise bits
every node's downstream consumers will spend
(:meth:`repro.hecore.noise.NoiseEstimator.node_cost_bits`, the table the
forward budget prediction spends from); a forward rebuild then inserts the
cheapest legal ``mod_switch`` frontier eagerly: at each drop site,
trailing limbs whose headroom exceeds the remaining spend (plus
:data:`SLACK_BITS`) are switched away.  CKKS uses the level/scale analog:
limbs beyond the downstream rescale depth drop via the scale-preserving
``drop_modulus`` as long as the coefficient magnitude still fits.  Levels
come from the one per-node rule, :func:`repro.core.ir.level_after`.  The
planner walks the program every rewrite pass has finished, each fused sum
one node, in the dependency order of its one analysis
(:meth:`repro.core.ir.IrProgram.analysis`), which it does not walk again.

A drop taken right on an ``input`` is that input's entry level
(:meth:`repro.core.ir.ScheduledProgram.entry_limbs`): the client encrypts
there.  A client round trip (decrypt, refresh, re-encrypt) lies between
two programs, so a chain of them — conv, client ReLU, fc — is tuned per
layer by planning each program and entering the next at its entry level.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.ir import IrNode, IrProgram, Level, level_after
from repro.hecore.noise import (
    MOD_SWITCH_GUARD_BITS,
    NoiseEstimator,
    SAFETY_BITS,
)
from repro.hecore.params import SchemeType

#: Node kinds after which an eager limb drop is considered.  Chosen to sit
#: at coefficient-form reduction points (key-switch sums, weighted or not,
#: and inputs) so the NTT-residency pass keeps its plain-multiply chains.
DROP_SITE_KINDS = frozenset({"input", "keyswitch_sum"})

#: Margin kept above the modeled downstream spend before a BFV drop.
SLACK_BITS = SAFETY_BITS + 1.0

#: CKKS coefficient-magnitude guard: live bits kept above the scale stack.
CKKS_VALUE_GUARD_BITS = 20


@dataclass
class LevelPlan:
    """What the planner did — wired into ScheduleReport and CostLedger."""

    #: The data-modulus chain the plan was made for; the only chain
    #: :meth:`repro.core.ir.ScheduledProgram.run` executes it on.
    chain: Tuple[int, ...] = ()
    limb_drops: int = 0             # eager drops inserted at drop sites
    align_switches: int = 0         # switches inserted to level-match operands
    #: Static limb-row integrals over the program that runs: live limbs
    #: summed over every ciphertext node but ``mod_switch`` — one run's
    #: ``limbs_live`` less its switch rows, every input on the full chain
    #: — with the planner off (every node on the full chain) and on.
    limb_rows_before: int = 0
    limb_rows_after: int = 0
    predicted_unsafe: int = 0       # outputs the noise model flags as unsafe

    def describe(self) -> str:
        saved = self.limb_rows_before - self.limb_rows_after
        return (f"{self.limb_drops} limb drop(s), "
                f"{self.align_switches} align switch(es), "
                f"{saved} limb-row(s) saved")


class _Planner:
    """Single forward rebuild of the program with eager drop frontiers."""

    def __init__(self, program: IrProgram, params, plan: LevelPlan):
        self.scheme = params.scheme
        self.plan = plan
        self.limb_bits = [p.bit_length() for p in plan.chain]
        self.full = len(self.limb_bits)
        self.out = IrProgram(slots=program.slots)
        nodes = program.nodes
        self.analysis = analysis = program.analysis(self.scheme)
        if self.scheme is SchemeType.BFV:
            # Noise bits every node's consumers will still spend on it.
            self.estimator = est = NoiseEstimator(params)
            cost = {nid: est.node_cost_bits(nodes[nid], nodes)
                    for nid in analysis.level}
        else:
            # The CKKS analog: rescale depth still ahead of a node.
            self.estimator = None
            self.scale_bits = max(1.0, math.log2(max(2.0, params.scale)))
            cost = {nid: int(nodes[nid].kind == "rescale")
                    for nid in analysis.level}
        #: The largest cost summed over any consumer path ahead of a node.
        self.ahead: Dict[int, float] = {}
        for nid in reversed(analysis.level):
            self.ahead[nid] = max((cost[c] + self.ahead[c] for c in
                                   analysis.consumers.get(nid, ())), default=0)

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

    def _droppable(self, nid: int, level: Level) -> int:
        """How many trailing limbs node *nid*'s value can legally shed."""
        live = self.full - level[0]
        bits = float(sum(self.limb_bits[:live]))
        target = live
        while target > 1:
            after = bits - self.limb_bits[target - 1]
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

    # ------------------------------------------------------------- rebuild
    def run(self) -> Tuple[IrProgram, LevelPlan]:
        nodes = self.analysis.nodes
        plan = self.plan
        new_id: Dict[int, int] = {}
        level: Dict[int, Optional[Level]] = {}
        for nid in self.analysis.level:
            node = nodes[nid]
            if node.kind == "const":
                new_id[nid], level[nid] = self._emit(node), None
                continue
            args, operands = self._aligned_args(node, new_id, level)
            nid2 = self._emit(node.remapped(args, new_id))
            lv = level_after(node, self.scheme, operands)
            if node.kind != "mod_switch":      # bookkeeping, no kernel work
                plan.limb_rows_before += self.full
                plan.limb_rows_after += self.full - lv[0]
            # Values about to leave the program drop too: that shrinks the
            # download even when no compute follows.
            if node.kind in DROP_SITE_KINDS or nid in self.analysis.out_ids:
                drops = self._droppable(nid, lv)
                nid2 = self._drop_chain(nid2, drops)
                lv = (lv[0] + drops, lv[1])
                plan.limb_drops += drops
            new_id[nid], level[nid] = nid2, lv
        for name, nid in self.analysis.outputs.items():
            self.out.outputs[name] = new_id[nid]
        return self.out, plan

    def _aligned_args(self, node: IrNode, new_id: Dict[int, int],
                      level: Dict[int, Optional[Level]]
                      ) -> Tuple[Tuple[int, ...], List[Level]]:
        """Map args, level-matching the ciphertext operands of a binary op,
        a product sum or a key-switch sum; returns them with their aligned
        levels."""
        operands = [level[a] for a in node.args if level[a] is not None]
        align = (node.kind in ("add", "sub", "mul", "product_sum",
                               "keyswitch_sum")
                 and len(operands) >= 2)
        target = max((lv[0] for lv in operands), default=0)
        mapped: Dict[int, int] = {}
        for a in dict.fromkeys(node.args):      # a square drops its one operand
            mapped[a] = new_id[a]
            if align and level[a][0] < target:
                gap = target - level[a][0]
                mapped[a] = self._drop_chain(mapped[a], gap)
                self.plan.align_switches += gap
        aligned = [(target, level[a][1]) if align else level[a]
                   for a in node.args if level[a] is not None]
        return tuple(mapped[a] for a in node.args), aligned


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
