"""Client-optimal HE parameter selection (§3.2, §5.6).

Given a workload profile — value quantization, accumulation fan-in, and the
encrypted-operation schedule between client refreshes — this module selects
the *smallest* parameter set (and therefore the smallest ciphertext) that
still finishes the segment with noise budget to spare.  This is the paper's
client-first inversion of the usual server-first parameter choice, and the
machinery behind Figure 13's communication-vs-schedule sweep.

The noise model is empirical, matching Table 4's structure (and this
repository's measured budgets, see ``benchmarks/bench_table4_noise.py``):

* initial budget ≈ ``log2(q_data) − 2·log2(t) − 7``
* a rotation costs ~2 bits;
* a masked permutation costs ``log2(t) + 6`` bits (two masking multiplies);
* a plaintext-multiply level costs ``log2(t) + log2(N)/2`` bits;
* a ciphertext-multiply level costs ``log2(t) + log2(N) + 8`` bits.

Rotational redundancy's payoff appears here directly: it zeroes the
``masked_permutations`` term, which shrinks ``q`` — often by an entire RNS
residue (§3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.hecore.params import SchemeType
from repro.hecore.security import max_coeff_modulus_bits

#: Empirical noise costs, bits (see module docstring).
FRESH_NOISE_BITS = 7
ROTATION_COST_BITS = 2
MASKED_PERMUTE_EXTRA_BITS = 6
SAFETY_MARGIN_BITS = 4

#: Largest logical bits per RNS residue (SEAL word size).
MAX_RESIDUE_BITS = 60

#: Logical key-prime width used when sizing a parameter set.
KEY_PRIME_BITS = 60

POLY_DEGREES = (2048, 4096, 8192, 16384, 32768)


@dataclass(frozen=True)
class WorkloadProfile:
    """What one encrypted segment (between client refreshes) must support."""

    value_bits: int                 # quantized input magnitude, bits
    fan_in: int                     # longest encrypted accumulation
    rotations: int = 0              # plain rotations per segment
    masked_permutations: int = 0    # arbitrary permutations (0 under CHOCO)
    plain_mult_depth: int = 1       # plaintext-multiply levels
    ct_mult_depth: int = 0          # ciphertext-multiply levels
    min_slots: int = 1              # packing requirement

    def with_rotational_redundancy(self) -> "WorkloadProfile":
        """The same workload after the §3.3 optimization: no masked permutes,
        one extra plain rotation per former permutation."""
        return replace(
            self,
            masked_permutations=0,
            rotations=self.rotations + self.masked_permutations,
        )


@dataclass(frozen=True)
class ParameterChoice:
    """A selected parameter point (the logical view the paper reports)."""

    scheme: SchemeType
    poly_degree: int
    plain_bits: Optional[int]       # BFV t; None for CKKS
    data_bits: int                  # log2 of the data coefficient modulus
    data_residues: int              # k - 1
    residue_bits: Tuple[int, ...]   # logical {k} including the key prime

    @property
    def residue_count(self) -> int:
        return self.data_residues + 1

    @property
    def total_bits(self) -> int:
        return sum(self.residue_bits)

    @property
    def ciphertext_bytes(self) -> int:
        return 2 * self.data_residues * self.poly_degree * 8

    def describe(self) -> str:
        t = f"t=2^{self.plain_bits}" if self.plain_bits else "t=N/A"
        return (f"{self.scheme.value.upper()} N={self.poly_degree} "
                f"{{k}}={list(self.residue_bits)} {t} "
                f"-> {self.ciphertext_bytes} B")


def required_plain_bits(profile: WorkloadProfile) -> int:
    """Smallest BFV log2(t) holding the segment's widest accumulation.

    A product of two *value_bits* operands needs ``2v`` bits, accumulating
    *fan_in* of them adds ``log2(fan_in)``, and every further multiply level
    — plaintext or ciphertext — compounds another *value_bits*-wide
    fixed-point scale (BFV has no rescaling, so scales stack; this is why
    deep PageRank segments favor CKKS, §5.6).
    """
    return ((1 + max(1, profile.plain_mult_depth)) * profile.value_bits
            + math.ceil(math.log2(max(profile.fan_in, 1)))
            + profile.ct_mult_depth * profile.value_bits)


def noise_cost_bits(profile: WorkloadProfile, plain_bits: int, poly_degree: int) -> int:
    """Noise budget (bits) the segment consumes after fresh encryption."""
    log_n = math.log2(poly_degree)
    # Rotations within one linear operation apply to (copies of) the same
    # fresh input and are then summed, so their key-switch noise combines
    # additively: a few bits of sequential depth plus log2(count) for the
    # accumulation — not a per-rotation charge.
    rot = profile.rotations
    cost = ROTATION_COST_BITS * min(rot, 4) + math.ceil(math.log2(rot + 1))
    cost += profile.masked_permutations * (plain_bits + MASKED_PERMUTE_EXTRA_BITS)
    cost += profile.plain_mult_depth * (plain_bits + log_n / 2)
    cost += profile.ct_mult_depth * (plain_bits + log_n + 8)
    return math.ceil(cost)


def required_data_bits(profile: WorkloadProfile, poly_degree: int,
                       scheme: SchemeType = SchemeType.BFV) -> Tuple[int, Optional[int]]:
    """(log2 q_data, log2 t) needed for the segment at this N."""
    if scheme is SchemeType.CKKS:
        # CKKS: a base prime covers value + scale; each multiplicative level
        # consumes one ~scale-sized rescale prime.
        scale_bits = profile.value_bits + 14
        levels = profile.plain_mult_depth + profile.ct_mult_depth
        data = (scale_bits + profile.value_bits + 10) + levels * scale_bits
        return data, None
    t_bits = required_plain_bits(profile)
    data = (2 * t_bits + FRESH_NOISE_BITS + SAFETY_MARGIN_BITS
            + noise_cost_bits(profile, t_bits, poly_degree))
    return data, t_bits


def _split_residues(data_bits: int) -> Tuple[int, ...]:
    count = max(1, math.ceil(data_bits / MAX_RESIDUE_BITS))
    base = data_bits // count
    rem = data_bits - base * count
    return tuple(base + 1 if i < rem else base for i in range(count))


def select_parameters(profile: WorkloadProfile,
                      scheme: SchemeType = SchemeType.BFV) -> ParameterChoice:
    """Smallest-ciphertext parameter point satisfying *profile* (§3.2)."""
    best: Optional[ParameterChoice] = None
    for n in POLY_DEGREES:
        if n < 2 * profile.min_slots:   # slots: N for BFV rows, N/2 rotating
            continue
        data_bits, t_bits = required_data_bits(profile, n, scheme)
        if data_bits + KEY_PRIME_BITS > max_coeff_modulus_bits(n):
            continue
        if scheme is SchemeType.BFV and t_bits is not None and t_bits >= n.bit_length() + 24:
            # plaintext modulus must stay well below the residue word size
            if t_bits > 40:
                continue
        residues = _split_residues(data_bits)
        choice = ParameterChoice(
            scheme=scheme,
            poly_degree=n,
            plain_bits=t_bits,
            data_bits=data_bits,
            data_residues=len(residues),
            residue_bits=residues + (KEY_PRIME_BITS,),
        )
        if best is None or choice.ciphertext_bytes < best.ciphertext_bytes:
            best = choice
    if best is None:
        raise ValueError("no 128-bit-secure parameter set satisfies this workload")
    return best


def residue_savings_from_redundancy(profile: WorkloadProfile,
                                    scheme: SchemeType = SchemeType.BFV):
    """Compare parameter choices with and without rotational redundancy.

    Returns (baseline_choice, choco_choice); §3.3 reports that eliminating
    masked permutations saves an entire RNS residue for the DNN workloads.
    """
    choco = select_parameters(profile.with_rotational_redundancy(), scheme)
    baseline = select_parameters(profile, scheme)
    return baseline, choco
