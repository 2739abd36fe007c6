"""Tests for the BLAKE2b-seeded sampler (the accelerator's RNG mirror)."""

import numpy as np
import pytest

from repro.hecore.random import ERROR_STDDEV, BlakePrng


def test_deterministic_from_seed():
    a = BlakePrng(seed=42).sample_uniform(100, 1 << 30)
    b = BlakePrng(seed=42).sample_uniform(100, 1 << 30)
    c = BlakePrng(seed=43).sample_uniform(100, 1 << 30)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_types():
    for seed in (7, b"bytes-seed", "stringy"):
        prng = BlakePrng(seed)
        assert len(prng.random_bytes(16)) == 16


def test_fork_domain_separation():
    parent = BlakePrng(seed=1)
    child_a = parent.fork("a")
    child_b = parent.fork("b")
    assert not np.array_equal(child_a.sample_ternary(64),
                              child_b.sample_ternary(64))


@pytest.mark.parametrize("draw", ["sample_error", "sample_ternary"])
def test_batched_draws_are_stream_identical(draw):
    """An ``(m, n)`` draw is ``m`` sequential ``(n,)`` draws bit for bit, and
    leaves the stream where they leave it: key generation draws every
    key-switching error of a key set at once."""
    for n, m in ((4096, 6), (7, 5)):
        batched, looped = BlakePrng(seed=n), BlakePrng(seed=n)
        block = getattr(batched, draw)((m, n))
        rows = [getattr(looped, draw)(n) for _ in range(m)]
        assert np.array_equal(block, np.stack(rows))
        assert batched.random_bytes(16) == looped.random_bytes(16)


def test_uniform_range_and_spread():
    p = (1 << 29) - 3
    samples = BlakePrng(seed=2).sample_uniform(20000, p)
    assert samples.min() >= 0 and samples.max() < p
    assert abs(samples.mean() / p - 0.5) < 0.02


def test_ternary_distribution():
    samples = BlakePrng(seed=3).sample_ternary(30000)
    assert set(np.unique(samples)) <= {-1, 0, 1}
    for v in (-1, 0, 1):
        assert abs(np.mean(samples == v) - 1 / 3) < 0.02


def test_error_distribution():
    samples = BlakePrng(seed=4).sample_error(50000)
    assert abs(samples.mean()) < 0.1
    assert abs(samples.std() - ERROR_STDDEV) < 0.15
    assert np.max(np.abs(samples)) <= int(6 * ERROR_STDDEV)


def test_error_custom_stddev():
    samples = BlakePrng(seed=5).sample_error(50000, stddev=1.0)
    assert abs(samples.std() - 1.0) < 0.1
