"""Direct tests for EncryptionParameters construction and accounting."""

import functools
import math

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
from repro.hecore.security import max_coeff_modulus_bits


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


def _paramsearch_sets():
    """The parameter points ``select_parameters`` picks for the Table-5 DNN
    profile (with and without rotational redundancy) and for every Figure-13
    PageRank segment length (each total divides 48), built through
    ``create``."""
    from repro.apps.pagerank import segment_profile
    from repro.core.paramsearch import select_parameters
    from tests.test_paramsearch import DNN_PROFILE

    profiles = [(DNN_PROFILE, SchemeType.BFV),
                (DNN_PROFILE.with_rotational_redundancy(), SchemeType.BFV)]
    profiles += [(segment_profile(s, 64, scheme), scheme)
                 for scheme in SchemeType
                 for s in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)]
    choices = set()
    for profile, scheme in profiles:
        try:
            choices.add(select_parameters(profile, scheme))
        except ValueError:
            continue            # a segment too deep for any secure set
    return {f"search-{c.scheme.value}-{c.poly_degree}-{'-'.join(map(str, c.residue_bits))}":
            functools.partial(EncryptionParameters.create, c.scheme,
                              c.poly_degree, c.residue_bits,
                              plain_bits=c.plain_bits)
            for c in choices}


NAMED_SETS = {
    "A": lambda: PARAMETER_SET_A,
    "B": lambda: PARAMETER_SET_B,
    "C": lambda: PARAMETER_SET_C,
    **{f"SEAL-{n}-{scheme.value}": functools.partial(
        seal_default_parameters, n, scheme)
       for n in (4096, 8192, 16384, 32768) for scheme in SchemeType},
    **_paramsearch_sets(),
}


@pytest.mark.parametrize("name", sorted(NAMED_SETS))
def test_one_special_prime_above_every_data_prime_within_the_limit(name):
    """Key switching uses exactly one special prime, above every data prime;
    the moduli that execute, ``Q·P``, fit the 128-bit limit; and ``create``
    refuses a set whose data modulus plus that 30-bit prime does not fit,
    even when its logical total does."""
    params = NAMED_SETS[name]()
    n = params.poly_degree
    assert params.full_base.moduli == (params.data_base.moduli
                                       + (params.special_prime,))
    assert params.fingerprint()[-1] == (params.special_prime,)
    assert params.special_prime > max(params.data_base.moduli)
    limit = max_coeff_modulus_bits(n)
    assert math.log2(params.full_base.modulus) <= limit
    with pytest.raises(ValueError, match="executed"):
        EncryptionParameters.create(SchemeType.BFV, n, (limit - 28, 28),
                                    plain_bits=20)


def test_seal_16384_rotation_burns_no_key_switch_bits():
    """With a special prime above every data limb, a rotation at SEAL-16384
    costs what it costs at SEAL-8192: nothing measurable."""
    from repro.hecore.bfv import BfvContext

    ctx = BfvContext(seal_default_parameters(16384), seed=b"seal-16384")
    ctx.make_galois_keys([1])
    ct = ctx.encrypt(list(range(64)))
    before = ctx.noise_budget(ct)
    rotated = ctx.rotate(ct, 1)
    assert before - ctx.noise_budget(rotated) <= 2
    assert list(ctx.decrypt(rotated)[:63]) == list(range(1, 64))


@pytest.mark.parametrize("n_special", [0, 2])
def test_params_blob_declaring_other_special_counts_is_rejected(n_special):
    from repro.hecore.serialize import deserialize_params, serialize_params

    blob = bytearray(serialize_params(PARAMETER_SET_B))
    assert deserialize_params(bytes(blob)) == PARAMETER_SET_B
    # n_special follows magic 4, version 1, scheme 1, poly_degree 4,
    # plain_bits 2, scale_bits 2 and n_logical 1.
    blob[15] = n_special
    with pytest.raises(ValueError, match="special"):
        deserialize_params(bytes(blob))


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
