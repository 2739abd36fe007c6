"""Unit and property tests for the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.primes import generate_ntt_primes
from tests import oracles

N = 64
P = generate_ntt_primes(20, 1, N)[0]


@pytest.fixture(scope="module")
def plan():
    return oracles.get_plan(N, P)


def test_plan_cached():
    assert oracles.get_plan(N, P) is oracles.get_plan(N, P)


def test_plan_rejects_bad_size():
    with pytest.raises(ValueError):
        oracles.NttPlan(100, P)


def test_plan_rejects_unfriendly_prime():
    with pytest.raises(ValueError):
        oracles.NttPlan(N, 97)  # 97 - 1 not divisible by 128


def test_forward_matches_direct_evaluation(plan):
    rng = np.random.default_rng(1)
    a = rng.integers(0, P, N, dtype=np.int64)
    out = plan.forward(a)
    # Position j must hold the evaluation at psi^(2j+1).
    for j in (0, 1, N // 2, N - 1):
        point = pow(plan.psi, 2 * j + 1, P)
        expected = sum(int(a[i]) * pow(point, i, P) for i in range(N)) % P
        assert int(out[j]) == expected


def test_roundtrip(plan):
    rng = np.random.default_rng(2)
    a = rng.integers(0, P, N, dtype=np.int64)
    assert np.array_equal(plan.inverse(plan.forward(a)), a)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20)
def test_roundtrip_property(seed):
    plan = oracles.get_plan(N, P)
    a = np.random.default_rng(seed).integers(0, P, N, dtype=np.int64)
    assert np.array_equal(plan.inverse(plan.forward(a)), a)


def test_negacyclic_multiply_matches_naive(plan):
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, N, dtype=np.int64)
    b = rng.integers(0, P, N, dtype=np.int64)
    fast = plan.negacyclic_multiply(a, b)
    slow = oracles.negacyclic_multiply_naive(a, b, P)
    assert np.array_equal(fast, slow)


def test_negacyclic_wraparound_sign(plan):
    # x^(N-1) * x = x^N = -1 in the quotient ring.
    a = np.zeros(N, dtype=np.int64)
    b = np.zeros(N, dtype=np.int64)
    a[N - 1] = 1
    b[1] = 1
    out = plan.negacyclic_multiply(a, b)
    assert int(out[0]) == P - 1
    assert np.all(out[1:] == 0)


def test_multiply_by_constant_poly(plan):
    rng = np.random.default_rng(4)
    a = rng.integers(0, P, N, dtype=np.int64)
    one = np.zeros(N, dtype=np.int64)
    one[0] = 1
    assert np.array_equal(plan.negacyclic_multiply(a, one), a)


def test_linearity(plan):
    rng = np.random.default_rng(5)
    a = rng.integers(0, P, N, dtype=np.int64)
    b = rng.integers(0, P, N, dtype=np.int64)
    lhs = plan.forward((a + b) % P)
    rhs = (plan.forward(a) + plan.forward(b)) % P
    assert np.array_equal(lhs, rhs)


def test_larger_sizes_roundtrip():
    for n in (128, 512, 2048):
        p = generate_ntt_primes(24, 1, n)[0]
        plan = oracles.get_plan(n, p)
        a = np.random.default_rng(n).integers(0, p, n, dtype=np.int64)
        assert np.array_equal(plan.inverse(plan.forward(a)), a)
