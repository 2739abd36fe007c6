"""Static noise-budget estimation (no cryptography executed).

Client-aided scheduling needs to know *before running* whether an encrypted
segment fits the noise budget — that's how CHOCO selects parameters (§3.2)
and how the PageRank schedules of Figure 13 are priced.  This estimator
mirrors the empirical model of :mod:`repro.core.paramsearch` at the
granularity of individual operations, so a planned operation sequence can
be budget-checked in microseconds instead of seconds of real HE.

Every IR kind is priced by one table, :meth:`NoiseEstimator.node_cost_bits`.
The fused nodes are priced by their own accumulation: a ``keyswitch_sum``
as one rotation's key switch plus its sum (and one plain multiply when its
terms are weighted), a ``product_sum`` as a ct-ct multiply plus its sum.

Validated against measured budgets in ``tests/test_noise_estimator.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.hecore.params import EncryptionParameters, SchemeType

#: Fresh-budget constant: budget ≈ log2(q_data) − 2·log2(t) − FRESH_OFFSET.
#: Calibrated to THIS library's measured fresh budgets (SEAL's constant is
#: ~8 bits more pessimistic; repro.core.paramsearch keeps the conservative
#: value because parameter selection should match SEAL-class systems).
FRESH_OFFSET_BITS = 0

#: Bits one rotation's key-switching contributes (one 30-bit special prime).
ROTATION_BITS = 2

#: Safety slack applied by :meth:`NoiseEstimate.is_safe`.
SAFETY_BITS = 3

#: Rounding guard for a modulus switch: the divide-and-round step leaves
#: noise of roughly ``t * ||s||_1`` absolute magnitude, so the budget after
#: a switch cannot exceed ``live_bits - t_bits - log2(N) - guard``.
MOD_SWITCH_GUARD_BITS = 1.0

#: Documented slack for whole-program predictions
#: (:meth:`NoiseEstimator.budget_after` vs measured budgets).  The model
#: charges every plaintext multiply its worst-case ``t``-sized multiplier;
#: real kernels multiply by small constants and keep more budget, so the
#: prediction errs low by up to this many bits — never high by more than
#: :data:`SAFETY_BITS`.
PROGRAM_SLACK_BITS = 16


@dataclass(frozen=True)
class NoiseEstimate:
    """A predicted invariant-noise budget, in bits."""

    budget_bits: float
    params: EncryptionParameters
    #: Bits of the *live* data modulus (after planner limb drops); ``None``
    #: means the full data base is live.
    q_bits_live: Optional[float] = None

    def is_safe(self, slack: float = SAFETY_BITS) -> bool:
        """Whether decryption is predicted to succeed with margin."""
        return self.budget_bits >= slack


class NoiseEstimator:
    """Per-operation budget arithmetic for one BFV parameter set."""

    def __init__(self, params: EncryptionParameters):
        if params.scheme is not SchemeType.BFV:
            raise ValueError("the static estimator models BFV budgets")
        self.params = params
        self.t_bits = params.plain_modulus.bit_length()
        self.q_bits = params.data_base.bit_size
        self.log_n = math.log2(params.poly_degree)

    # ------------------------------------------------------------ states
    def fresh(self) -> NoiseEstimate:
        budget = self.q_bits - 2 * self.t_bits - FRESH_OFFSET_BITS
        return NoiseEstimate(budget_bits=float(max(0, budget)), params=self.params)

    # --------------------------------------------------------- transitions
    def _spend(self, est: NoiseEstimate, bits: float) -> NoiseEstimate:
        return replace(est, budget_bits=max(0.0, est.budget_bits - bits))

    def after_add(self, est: NoiseEstimate,
                  other: Optional[NoiseEstimate] = None) -> NoiseEstimate:
        """Adding ciphertexts: noise adds — at most one bit at the max."""
        floor = min(est.budget_bits,
                    other.budget_bits if other else est.budget_bits)
        return replace(est, budget_bits=max(0.0, floor - 1))

    def after_rotation(self, est: NoiseEstimate) -> NoiseEstimate:
        return self._spend(est, ROTATION_BITS)

    def after_multiply_plain(self, est: NoiseEstimate) -> NoiseEstimate:
        """Plain multiply scales noise by ~||encoded plaintext||: t·sqrt(N)."""
        return self._spend(est, self.t_bits + self.log_n / 2)

    def after_masked_permutation(self, est: NoiseEstimate) -> NoiseEstimate:
        """Figure 4A: two rotations + two masking multiplies + one add.

        The two masked halves are disjoint, so their noise combines like a
        single masking multiply plus the rotations.
        """
        est = self.after_rotation(self.after_rotation(est))
        est = self.after_multiply_plain(est)
        return self.after_add(est)

    def after_mod_switch(self, est: NoiseEstimate,
                         dropped_bits: float) -> NoiseEstimate:
        """Dropping *dropped_bits* of trailing data residue.

        BFV mod-switch preserves the invariant-noise *ratio* — both the
        noise and ``q`` divide by the dropped prime — so the budget carries
        over, capped by the rounding floor of the smaller modulus:
        ``live_bits - t_bits - log2(N) - guard`` (the divide-and-round step
        leaves ``~t·||s||_1`` of absolute noise behind).
        """
        live = (self.q_bits if est.q_bits_live is None
                else est.q_bits_live) - dropped_bits
        ceiling = live - self.t_bits - self.log_n - MOD_SWITCH_GUARD_BITS
        budget = min(est.budget_bits, max(0.0, ceiling))
        return replace(est, budget_bits=budget, q_bits_live=live)

    # ------------------------------------------------------------ planning
    def segment_is_feasible(self, plain_mult_depth: int, rotations: int,
                            masked_permutations: int = 0) -> bool:
        """Whether an encrypted segment finishes with budget to spare."""
        est = self.fresh()
        for _ in range(masked_permutations):
            est = self.after_masked_permutation(est)
        # Rotations within a linear op act on fresh copies in parallel and
        # are then summed: one rotation of depth plus log2(count) additions.
        est = self._spend(est, ROTATION_BITS + math.log2(rotations + 1))
        for _ in range(plain_mult_depth):
            est = self.after_multiply_plain(est)
        return est.is_safe()

    # ------------------------------------------------------------ programs
    def node_cost_bits(self, node, nodes) -> float:
        """Noise bits IR node *node* charges the value flowing into it —
        the one per-kind table :meth:`budget_after` spends forward and the
        level planner sums backward.  A ``keyswitch_sum`` of ``T`` terms is
        one rotation plus its accumulation, ``ceil(log2(T + 1))`` bits, and
        when weighted one plain multiply plus that accumulation again (the
        planner sees the fused node, never the add chain it replaces).  A
        ``product_sum`` is a ct-ct ``mul`` plus its accumulation;
        kinds that move no noise (``neg``, ``rescale``, ``mod_switch``)
        cost nothing, and neither does
        ``relin``: a ct-ct ``mul`` prices its own key switch, so a BFV sum
        of products under one sunk ``relin`` is over-priced, never under
        (a CKKS ``product_sum`` pays its one)."""
        kind = node.kind
        plain = any(nodes[a].kind == "const" for a in node.args)
        if kind == "rotate":
            return ROTATION_BITS
        if kind in ("add", "sub"):
            return 0.5 if plain else 1.0
        if kind == "mul":
            return self.t_bits + (self.log_n / 2 if plain
                                  else self.log_n + 8)
        if kind == "keyswitch_sum":
            depth = math.ceil(math.log2(len(node.terms) + 1))
            return ROTATION_BITS + depth + bool(node.weights()) * (
                self.t_bits + self.log_n / 2 + depth)
        if kind == "product_sum":
            return (self.t_bits + self.log_n + 8
                    + math.ceil(math.log2(len(node.args) // 2)))
        return 0.0

    def budget_after(self, program) -> dict:
        """Predicted budget for every output of a ciphertext IR program.

        Walks a :class:`repro.core.ir.IrProgram` in the dependency order of
        its one static analysis (``program.analysis``), spending
        :meth:`node_cost_bits` from the tightest operand at every node and
        pricing ``mod_switch`` limb drops (planner-inserted or traced) at
        the analysed level.  Returns ``{output_name: NoiseEstimate}``.

        Predictions are conservative: measured budgets exceed them by up to
        :data:`PROGRAM_SLACK_BITS` (the model assumes worst-case ``t``-sized
        plaintext multipliers), and a prediction that ``is_safe()`` must
        decrypt — asserted over randomized DAGs in
        ``tests/test_noise_estimator.py``.
        """
        nodes = program.nodes
        limb_bits = [int(p).bit_length()
                     for p in self.params.data_base.moduli]
        state: dict = {}        # nid -> NoiseEstimate (None for consts)
        for nid, level in program.analysis(self.params.scheme).level.items():
            node = nodes[nid]
            operands = [state[a] for a in node.args if state[a] is not None]
            if level is None:
                state[nid] = None
            elif not operands:          # an input
                state[nid] = self.fresh()
            elif node.kind == "mod_switch":
                state[nid] = self.after_mod_switch(
                    operands[0], limb_bits[len(limb_bits) - level[0]])
            else:
                floor = min(e.budget_bits for e in operands)
                state[nid] = self._spend(
                    replace(operands[0], budget_bits=floor),
                    self.node_cost_bits(node, nodes))
        return {name: state[nid] for name, nid in program.outputs.items()}
