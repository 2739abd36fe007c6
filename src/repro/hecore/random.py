"""Deterministic cryptographic-style randomness for HE sampling.

The paper's accelerator devotes a module to a Blake3 PRNG feeding ternary and
normal samplers (§4.2); SEAL itself uses a Blake2 extendable stream.  Blake3
is not in the Python standard library, so this module derives seeds with
BLAKE2b and expands them with numpy's PCG64 — preserving determinism,
reproducibility, and the sampler distributions, which is what the functional
scheme and the accelerator's bandwidth model depend on (see DESIGN.md
substitution table).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple, Union

import numpy as np

#: Sampler sizes: a single length ``n`` or a shape tuple such as ``(m, n)``
#: for batch draws.  A ``(m, n)`` draw consumes the generator stream exactly
#: like ``m`` sequential ``(n,)`` draws (PCG64 fills row-major), which is what
#: the batched client-crypto PRNG fork schedule relies on.
Size = Union[int, Tuple[int, ...]]

#: Standard deviation of the RLWE error distribution, matching SEAL's default.
ERROR_STDDEV = 3.2


class BlakePrng:
    """BLAKE2b-seeded deterministic pseudo-random generator.

    Parameters
    ----------
    seed:
        Any bytes-like or integer seed.  ``None`` draws entropy from the OS.
    """

    def __init__(self, seed: Optional[object] = None):
        if seed is None:
            material = np.random.SeedSequence().entropy.to_bytes(16, "little")
        elif isinstance(seed, int):
            material = seed.to_bytes((seed.bit_length() + 8) // 8 or 1, "little", signed=False)
        elif isinstance(seed, (bytes, bytearray)):
            material = bytes(seed)
        else:
            material = repr(seed).encode()
        digest = hashlib.blake2b(material, digest_size=32).digest()
        self._generator = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))

    def fork(self, label: str) -> "BlakePrng":
        """Derive an independent child stream for *label* (domain separation)."""
        return BlakePrng(self.random_bytes(16) + label.encode())

    def random_bytes(self, n: int) -> bytes:
        """*n* pseudo-random bytes."""
        return self._generator.bytes(n)

    def sample_uniform(self, size: Size, modulus: int) -> np.ndarray:
        """Residues uniform in ``[0, modulus)``; *size* is a length or shape."""
        return self._generator.integers(0, modulus, size=size, dtype=np.int64)

    def sample_ternary(self, size: Size) -> np.ndarray:
        """Values uniform over {−1, 0, 1} — the secret/``u`` distribution."""
        return self._generator.integers(-1, 2, size=size, dtype=np.int64)

    def sample_error(self, size: Size, stddev: float = ERROR_STDDEV) -> np.ndarray:
        """Discrete-Gaussian-style error values: a rounded normal clipped
        at 6 sigma as SEAL does (``|e| <= 19`` at the default stddev)."""
        raw = np.rint(self._generator.normal(0.0, stddev, size=size)).astype(np.int64)
        bound = max(1, int(6 * stddev))
        return np.clip(raw, -bound, bound)
