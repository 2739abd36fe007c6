"""Shared fixtures: small, fast HE contexts reused across the test suite."""

import pytest
from hypothesis import settings

# Deterministic property testing: the same examples every run.  No
# per-example deadline anywhere: a first example pays key generation and
# plan construction, which a loaded host stretches past any fixed bound.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")

from repro.core import ir
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters


@pytest.fixture(autouse=True)
def _cold_program_cache():
    """Every test starts with an empty shared schedule cache: first-call
    fill counts (``ntt_forward`` rows) must not depend on which test
    compiled the same program earlier."""
    ir.clear_program_cache()


@pytest.fixture(scope="session")
def bfv_params():
    return small_test_parameters(SchemeType.BFV, poly_degree=1024, plain_bits=16,
                                 data_bits=(30, 30, 30))


@pytest.fixture(scope="session")
def bfv(bfv_params):
    return BfvContext(bfv_params, seed=1234)


@pytest.fixture(scope="session")
def ckks_params():
    return small_test_parameters(SchemeType.CKKS, poly_degree=1024, data_bits=(30, 24, 24))


@pytest.fixture(scope="session")
def ckks(ckks_params):
    return CkksContext(ckks_params, seed=5678)
