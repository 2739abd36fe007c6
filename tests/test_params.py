"""Direct tests for EncryptionParameters construction and accounting."""

import pytest

from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.params import (
    PARAMETER_SET_A,
    PARAMETER_SET_B,
    PARAMETER_SET_C,
    EncryptionParameters,
    SchemeType,
    generate_primes_near,
    seal_default_parameters,
    small_test_parameters,
)


def test_preset_labels_and_schemes():
    assert PARAMETER_SET_A.label == "A"
    assert PARAMETER_SET_A.scheme is SchemeType.BFV
    assert PARAMETER_SET_C.scheme is SchemeType.CKKS
    assert PARAMETER_SET_B.poly_degree == 4096


def test_logical_accounting():
    assert PARAMETER_SET_A.logical_residue_count == 3
    assert PARAMETER_SET_A.logical_data_residues == 2
    assert PARAMETER_SET_A.total_coeff_bits == 175
    assert PARAMETER_SET_A.plaintext_bytes() == 8192 * 8


def test_computational_limbs_match_logical_width():
    """The DESIGN.md substitution: same total data bits, smaller limbs."""
    for params in (PARAMETER_SET_A, PARAMETER_SET_B):
        logical_data_bits = sum(params.logical_coeff_bits[:-1])
        computational_bits = sum(
            p.bit_length() for p in params.data_base.moduli)
        assert computational_bits == logical_data_bits
        assert all(p.bit_length() <= MAX_MODULUS_BITS
                   for p in params.data_base.moduli)


def test_slot_counts():
    assert PARAMETER_SET_A.slot_count == 8192       # BFV: N slots
    assert PARAMETER_SET_C.slot_count == 4096       # CKKS: N/2 slots


def test_special_primes_disjoint_from_data():
    for params in (PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C):
        assert not set(params.special_primes) & set(params.data_base.moduli)
        assert len(params.special_primes) == 2


def test_describe_mentions_essentials():
    text = PARAMETER_SET_B.describe()
    assert "BFV" in text and "N=4096" in text and "131072" in text


def test_security_enforcement():
    with pytest.raises(ValueError):
        EncryptionParameters.create(SchemeType.BFV, 4096, (60, 60, 60),
                                    plain_bits=18)
    # The same selection passes when enforcement is waived (test-only).
    EncryptionParameters.create(SchemeType.BFV, 4096, (60, 60, 60),
                                plain_bits=18, enforce_security=False)


def test_create_validations():
    with pytest.raises(ValueError):
        EncryptionParameters.create(SchemeType.BFV, 1000, (30, 30),
                                    plain_bits=16)   # not a power of two
    with pytest.raises(ValueError):
        EncryptionParameters.create(SchemeType.BFV, 4096, (36,),
                                    plain_bits=18)   # no key prime
    with pytest.raises(ValueError):
        EncryptionParameters.create(SchemeType.BFV, 4096, (36, 36, 37))


def test_seal_defaults():
    default = seal_default_parameters(8192)
    assert default.logical_residue_count == 5
    assert default.total_coeff_bits == 218
    assert default.ciphertext_bytes() == 524288
    with pytest.raises(ValueError):
        seal_default_parameters(1024)


def test_seal_default_ckks():
    params = seal_default_parameters(8192, SchemeType.CKKS)
    assert params.scheme is SchemeType.CKKS
    assert params.scale == 2.0 ** 28


def test_generate_primes_near():
    primes = generate_primes_near(1 << 24, 3, 1024)
    assert len(set(primes)) == 3
    for p in primes:
        assert p % 2048 == 1
        assert abs(p - (1 << 24)) < (1 << 20)


def test_generate_primes_near_excludes():
    first = generate_primes_near(1 << 24, 1, 1024)[0]
    second = generate_primes_near(1 << 24, 1, 1024, exclude=[first])[0]
    assert first != second


def test_small_test_parameters_are_flagged_insecure():
    params = small_test_parameters()
    assert params.label == "test"
    assert params.poly_degree == 1024
