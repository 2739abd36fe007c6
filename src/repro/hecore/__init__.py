"""From-scratch RNS homomorphic encryption library (BFV and CKKS).

This subpackage is the substrate that the paper builds on top of Microsoft
SEAL.  It implements the full stack: vectorized modular arithmetic, NTT-
friendly prime generation, negacyclic NTT/INTT, RNS polynomial rings, a
BLAKE2b-based CSPRNG, key generation with special-prime key switching, and
the BFV and CKKS schemes with noise-budget tracking.
"""

from repro.hecore.params import (
    EncryptionParameters,
    SchemeType,
    PARAMETER_SET_A,
    PARAMETER_SET_B,
    PARAMETER_SET_C,
    seal_default_parameters,
)
from repro.hecore.keys import KeyGenerator, SecretKey, PublicKey, RelinKeys, GaloisKeys
from repro.hecore.bfv import BfvContext, BatchEncoder
from repro.hecore.ckks import CkksContext, CkksEncoder
from repro.hecore.rlwe import RlweContext
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.plaintext import Plaintext


def context_for(params: EncryptionParameters, seed=None) -> RlweContext:
    """The context of *params*' scheme (:class:`BfvContext` / :class:`CkksContext`)."""
    cls = BfvContext if params.scheme is SchemeType.BFV else CkksContext
    return cls(params, seed)


__all__ = [
    "EncryptionParameters",
    "SchemeType",
    "PARAMETER_SET_A",
    "PARAMETER_SET_B",
    "PARAMETER_SET_C",
    "seal_default_parameters",
    "KeyGenerator",
    "SecretKey",
    "PublicKey",
    "RelinKeys",
    "GaloisKeys",
    "BfvContext",
    "BatchEncoder",
    "CkksContext",
    "CkksEncoder",
    "RlweContext",
    "context_for",
    "Ciphertext",
    "Plaintext",
]
