"""Plaintext containers for the BFV and CKKS schemes."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hecore.polyring import RnsPoly


class Plaintext:
    """A BFV plaintext: a polynomial with coefficients modulo ``t``.

    Produced by :class:`repro.hecore.bfv.BatchEncoder`; the coefficient
    vector is *not* the slot vector — encoding applies the slot-to-
    coefficient transform so that HE operations act element-wise on slots.
    """

    __slots__ = ("coeffs", "modulus")

    #: BFV is exact: plaintexts (like BFV ciphertexts) carry unit scale.
    scale = 1.0

    def __init__(self, coeffs: np.ndarray, modulus: int):
        self.coeffs = coeffs.astype(np.int64)
        self.modulus = int(modulus)

    def copy(self) -> "Plaintext":
        return Plaintext(self.coeffs.copy(), self.modulus)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Plaintext)
            and self.modulus == other.modulus
            and np.array_equal(self.coeffs, other.coeffs)
        )


class CkksPlaintext:
    """A CKKS plaintext: a scaled integer polynomial over an RNS base."""

    __slots__ = ("poly", "scale")

    def __init__(self, poly: RnsPoly, scale: float):
        self.poly = poly
        self.scale = float(scale)

    def copy(self) -> "CkksPlaintext":
        return CkksPlaintext(self.poly.copy(), self.scale)
