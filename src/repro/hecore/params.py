"""HE parameter sets: security, moduli, and ciphertext-size accounting.

Reproduces Table 2 (the parameters of an HE scheme), Table 3 (CHOCO's chosen
parameter sets A/B/C with their ciphertext sizes), and the SEAL-default
parameters used by the paper's baselines.

Two views of the coefficient modulus coexist:

* **Logical** bits (``logical_coeff_bits``) — the published ``{k}`` column.
  Sizes and accelerator accounting use the logical residue count ``k`` with
  8-byte words, exactly as the paper does: a fresh ciphertext is
  ``s * (k - 1) * N * 8`` bytes (the key prime never travels).
* **Computational** moduli — word-sized primes with the *same total bit
  width* as the logical data modulus, used by the functional scheme
  (DESIGN.md documents the 60-bit→30-bit limb substitution), plus ONE
  special prime for key switching: the largest 30-bit NTT prime for ``N``,
  so it is above every data prime.  Security is checked on these executed
  moduli, ``log2 Q·P``, not on the logical column.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.primes import generate_ntt_primes, is_prime
from repro.hecore.rns import RnsBase
from repro.hecore.security import max_coeff_modulus_bits

#: Bytes per encrypted coefficient word (`w` in Table 2).
WORD_BYTES = 8

#: SEAL's default coefficient modulus bit decompositions at 128-bit security,
#: used by the paper's software baselines ("SEAL's default parameters").
SEAL_DEFAULT_COEFF_BITS: Dict[int, Tuple[int, ...]] = {
    2048: (54,),
    4096: (36, 36, 37),
    8192: (43, 43, 44, 44, 44),
    16384: (48, 48, 48, 49, 49, 49, 49, 49, 49),
    32768: tuple([55] * 15 + [56]),
}


class SchemeType(enum.Enum):
    """The two vector HE schemes CHOCO targets."""

    BFV = "bfv"
    CKKS = "ckks"


def _split_bits(total: int, limb_max: int) -> List[int]:
    """Split *total* bits into near-equal limbs of at most *limb_max* bits."""
    count = max(1, math.ceil(total / limb_max))
    base = total // count
    remainder = total - base * count
    sizes = [base + 1 if i < remainder else base for i in range(count)]
    if min(sizes) < 4:
        raise ValueError(f"cannot split {total} bits into sane limbs")
    return sizes


def _generate_limb_primes(bit_sizes: Sequence[int], poly_degree: int) -> List[int]:
    """Distinct NTT-friendly primes matching the requested bit sizes."""
    primes: List[int] = []
    by_size: Dict[int, int] = {}
    for b in bit_sizes:
        by_size[b] = by_size.get(b, 0) + 1
    pool: Dict[int, List[int]] = {
        b: generate_ntt_primes(b, n, poly_degree) for b, n in by_size.items()
    }
    for b in bit_sizes:
        primes.append(pool[b].pop(0))
    return primes


def generate_primes_near(target: int, count: int, poly_degree: int,
                         exclude: Sequence[int] = ()) -> List[int]:
    """NTT-friendly primes as close as possible to *target* (CKKS rescaling)."""
    step = 2 * poly_degree
    start = target - ((target - 1) % step)
    primes: List[int] = []
    excluded = set(exclude)
    offset = 0
    while len(primes) < count:
        for candidate in (start + offset, start - offset) if offset else (start,):
            if candidate in excluded or candidate in primes:
                continue
            if 2 < candidate < (1 << MAX_MODULUS_BITS) and is_prime(candidate):
                primes.append(candidate)
                if len(primes) == count:
                    break
        offset += step
        if offset > target:
            raise ValueError(f"could not find {count} primes near {target}")
    return primes


@dataclass(frozen=True)
class EncryptionParameters:
    """A complete, validated HE parameter selection.

    Instances are built through :meth:`create`, which derives the plaintext
    modulus, the computational RNS bases, and the CKKS scale.
    """

    scheme: SchemeType
    poly_degree: int
    logical_coeff_bits: Tuple[int, ...]
    plain_bits: Optional[int] = None           # BFV only (log2 t)
    scale_bits: Optional[int] = None           # CKKS only
    label: str = ""
    plain_modulus: int = field(default=0, compare=False)
    data_base: RnsBase = field(default=None, compare=False, repr=False)
    full_base: RnsBase = field(default=None, compare=False, repr=False)
    scale: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------ factory
    @classmethod
    def create(
        cls,
        scheme: SchemeType,
        poly_degree: int,
        logical_coeff_bits: Sequence[int],
        plain_bits: Optional[int] = None,
        scale_bits: Optional[int] = None,
        label: str = "",
        enforce_security: bool = True,
    ) -> "EncryptionParameters":
        if poly_degree & (poly_degree - 1) or poly_degree < 8:
            raise ValueError(f"poly_degree {poly_degree} must be a power of two >= 8")
        logical = tuple(int(b) for b in logical_coeff_bits)
        if len(logical) < 2:
            raise ValueError("need at least one data prime and one key prime")
        data_bits = sum(logical[:-1])

        # The special prime draws first from the 30-bit pool, so it is the
        # largest 30-bit NTT prime and every data prime comes from below it.
        if scheme is SchemeType.BFV:
            if plain_bits is None:
                raise ValueError("BFV requires plain_bits")
            plain_modulus = generate_ntt_primes(plain_bits, 1, poly_degree)[0]
            limb_sizes = _split_bits(data_bits, MAX_MODULUS_BITS)
            special, *data_primes = _generate_limb_primes(
                [MAX_MODULUS_BITS] + limb_sizes, poly_degree)
            scale = 0.0
        elif scheme is SchemeType.CKKS:
            if scale_bits is None:
                scale_bits = 28
            plain_modulus = 0
            plain_bits = None
            scale = float(1 << scale_bits)
            base_prime_bits = min(MAX_MODULUS_BITS, data_bits)
            # Whole levels only: the rescale chain never outgrows the
            # logical data width it substitutes for.
            levels = max(1, (data_bits - base_prime_bits) // scale_bits)
            special, base_prime = _generate_limb_primes(
                [MAX_MODULUS_BITS, base_prime_bits], poly_degree)
            rescale = generate_primes_near(
                1 << scale_bits, levels, poly_degree, exclude=[special, base_prime]
            )
            data_primes = [base_prime] + rescale
        else:
            raise ValueError(f"unknown scheme {scheme}")

        full_base = RnsBase.of(tuple(data_primes) + (special,))
        if enforce_security:
            executed_bits = math.log2(full_base.modulus)
            limit = max_coeff_modulus_bits(poly_degree)
            if executed_bits > limit:
                raise ValueError(
                    f"executed log2(Q*P)={executed_bits:.1f} exceeds the "
                    f"128-bit security limit {limit} for N={poly_degree}"
                )
        data_base = RnsBase.of(tuple(data_primes))
        return cls(
            scheme=scheme,
            poly_degree=poly_degree,
            logical_coeff_bits=logical,
            plain_bits=plain_bits,
            scale_bits=scale_bits,
            label=label,
            plain_modulus=plain_modulus,
            data_base=data_base,
            full_base=full_base,
            scale=scale,
        )

    # --------------------------------------------------------- accounting
    @property
    def logical_residue_count(self) -> int:
        """`k` in Table 2: number of logical coprime moduli."""
        return len(self.logical_coeff_bits)

    @property
    def logical_data_residues(self) -> int:
        """Residues a ciphertext carries (the key prime is dropped): k − 1."""
        return self.logical_residue_count - 1

    @property
    def total_coeff_bits(self) -> int:
        """Published log2(q) including the key prime."""
        return sum(self.logical_coeff_bits)

    def ciphertext_bytes(self, components: int = 2) -> int:
        """Serialized fresh ciphertext size (Table 3, `Size (Bytes)` column)."""
        return components * self.logical_data_residues * self.poly_degree * WORD_BYTES

    def plaintext_bytes(self) -> int:
        """Size of one packed plaintext vector."""
        return self.poly_degree * WORD_BYTES

    @property
    def slot_count(self) -> int:
        """SIMD slots per ciphertext (N for BFV batching, N/2 for CKKS)."""
        if self.scheme is SchemeType.CKKS:
            return self.poly_degree // 2
        return self.poly_degree

    @property
    def special_prime(self) -> int:
        """The key-switching modulus ``P``: the full base's last residue."""
        return self.full_base.moduli[-1]

    def fingerprint(self) -> Tuple:
        """What makes two parameter sets the same one — ``(scheme, N, plain
        modulus, scale bits, data moduli, (special prime,))``: the fields of
        the runtime handshake, and the parameter half of the schedule-cache
        key.  Equal fingerprints evaluate identically.  The last field stays
        a tuple so the HELLO frame keeps its ``n_special`` layout."""
        return (self.scheme, self.poly_degree, self.plain_modulus,
                self.scale_bits or 0, self.data_base.moduli,
                (self.special_prime,))

    def describe(self) -> str:
        """One-line summary in the paper's Table 3 format."""
        t = f"log2 t={self.plain_bits}" if self.scheme is SchemeType.BFV else "t=N/A"
        return (
            f"{self.label or 'params'}: {self.scheme.value.upper()} N={self.poly_degree} "
            f"log2 q={self.total_coeff_bits} {{k}}={list(self.logical_coeff_bits)} {t} "
            f"size={self.ciphertext_bytes()} B"
        )


def _make_preset(label, scheme, n, bits, plain_bits=None, scale_bits=None):
    return EncryptionParameters.create(
        scheme, n, bits, plain_bits=plain_bits, scale_bits=scale_bits, label=label
    )


#: Table 3, label A: BFV, N=8192, log2 q=175 {58,58,59}, log2 t=23, 262144 B.
PARAMETER_SET_A = _make_preset("A", SchemeType.BFV, 8192, (58, 58, 59), plain_bits=23)

#: Table 3, label B: BFV, N=4096, log2 q=109 {36,36,37}, log2 t=18, 131072 B.
PARAMETER_SET_B = _make_preset("B", SchemeType.BFV, 4096, (36, 36, 37), plain_bits=18)

#: Table 3, label C: CKKS, N=8192, log2 q=140 {60,60,60}, 262144 B.
PARAMETER_SET_C = _make_preset("C", SchemeType.CKKS, 8192, (60, 60, 60), scale_bits=28)


def seal_default_parameters(
    poly_degree: int, scheme: SchemeType = SchemeType.BFV, plain_bits: int = 20
) -> EncryptionParameters:
    """SEAL's default 128-bit parameters — the paper's baseline selection."""
    bits = SEAL_DEFAULT_COEFF_BITS.get(poly_degree)
    if bits is None:
        raise ValueError(f"no SEAL default for N={poly_degree}")
    if scheme is SchemeType.BFV:
        return EncryptionParameters.create(
            scheme, poly_degree, bits, plain_bits=plain_bits, label=f"SEAL-{poly_degree}"
        )
    return EncryptionParameters.create(
        scheme, poly_degree, bits, scale_bits=28, label=f"SEAL-{poly_degree}-ckks"
    )


def small_test_parameters(
    scheme: SchemeType = SchemeType.BFV,
    poly_degree: int = 1024,
    plain_bits: int = 16,
    data_bits: Tuple[int, ...] = (27,),
) -> EncryptionParameters:
    """Small, fast parameters for unit tests (NOT secure; N is tiny)."""
    bits = tuple(data_bits) + (30,)
    return EncryptionParameters.create(
        scheme,
        poly_degree,
        bits,
        plain_bits=plain_bits if scheme is SchemeType.BFV else None,
        scale_bits=24 if scheme is SchemeType.CKKS else None,
        label="test",
        enforce_security=False,
    )
