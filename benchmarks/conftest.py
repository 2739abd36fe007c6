"""Benchmark-suite fixtures."""

import pytest

from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters


@pytest.fixture(scope="session")
def ckks_small():
    params = small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                   data_bits=(30, 24, 24))
    return CkksContext(params, seed=12)
