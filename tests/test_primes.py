"""Unit tests for NTT-friendly prime generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore import primes


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(30):
        assert primes.is_prime(n) == (n in known)


def test_is_prime_carmichael():
    # Carmichael numbers fool Fermat tests but not Miller-Rabin.
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not primes.is_prime(n)


def test_is_prime_large():
    assert primes.is_prime((1 << 31) - 1)       # Mersenne prime 2^31-1
    assert not primes.is_prime((1 << 29) - 1)   # 2^29-1 = 233 * 1103 * 2089


def test_generate_ntt_primes_properties():
    n = 2048
    ps = primes.generate_ntt_primes(30, 4, n)
    assert len(set(ps)) == 4
    for p in ps:
        assert primes.is_prime(p)
        assert p % (2 * n) == 1
        assert p.bit_length() == 30
    assert ps == sorted(ps, reverse=True)


def test_generate_plain_modulus():
    t = primes.generate_plain_modulus(17, 1024)
    assert primes.is_prime(t)
    assert t % 2048 == 1
    assert t.bit_length() == 17


@given(st.sampled_from([256, 512, 1024, 2048]))
@settings(max_examples=4)
def test_primitive_root_order(n):
    p = primes.generate_ntt_primes(28, 1, n)[0]
    root = primes.primitive_root_of_unity(2 * n, p)
    assert pow(root, 2 * n, p) == 1
    assert pow(root, n, p) == p - 1


def test_primitive_root_rejects_bad_order():
    with pytest.raises(ValueError):
        primes.primitive_root_of_unity(64, 97)  # 64 does not divide 96


def test_generator_is_generator():
    p = 257
    g = primes.find_generator(p)
    seen = {pow(g, k, p) for k in range(p - 1)}
    assert len(seen) == p - 1
