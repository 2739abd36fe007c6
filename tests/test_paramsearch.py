"""Tests for client-optimal parameter selection (§3.2)."""

import pytest

from repro.core.paramsearch import (
    ParameterChoice,
    WorkloadProfile,
    required_data_bits,
    required_plain_bits,
    residue_savings_from_redundancy,
    select_parameters,
)
from repro.hecore.params import SchemeType


DNN_PROFILE = WorkloadProfile(
    value_bits=4, fan_in=800, rotations=25, masked_permutations=2,
    plain_mult_depth=1, min_slots=2048,
)


def test_required_plain_bits():
    # 4-bit operands, fan-in 800 -> 2*4 + ceil(log2 800) = 18.
    assert required_plain_bits(WorkloadProfile(value_bits=4, fan_in=800)) == 18
    assert required_plain_bits(WorkloadProfile(value_bits=8, fan_in=1)) == 16


def test_masked_permutations_raise_data_bits():
    with_masks = required_data_bits(DNN_PROFILE, 8192)[0]
    without = required_data_bits(DNN_PROFILE.with_rotational_redundancy(), 8192)[0]
    assert with_masks - without > 40   # 2 permutations * ~24 bits each


def test_with_rotational_redundancy_converts_permutes():
    optimized = DNN_PROFILE.with_rotational_redundancy()
    assert optimized.masked_permutations == 0
    assert optimized.rotations == DNN_PROFILE.rotations + DNN_PROFILE.masked_permutations


def test_select_returns_valid_choice():
    choice = select_parameters(DNN_PROFILE.with_rotational_redundancy())
    assert isinstance(choice, ParameterChoice)
    assert choice.poly_degree >= 2 * DNN_PROFILE.min_slots
    assert choice.ciphertext_bytes == 2 * choice.data_residues * choice.poly_degree * 8


def test_redundancy_shrinks_ciphertexts():
    """§3.3: rotational redundancy enables smaller parameter selections."""
    baseline, choco = residue_savings_from_redundancy(DNN_PROFILE)
    assert choco.ciphertext_bytes < baseline.ciphertext_bytes
    assert choco.data_residues < baseline.data_residues


def test_choco_dnn_point_matches_table3():
    """The DNN workload should land on a Table-3-like point: N=8192, k<=3."""
    choice = select_parameters(DNN_PROFILE.with_rotational_redundancy())
    assert choice.poly_degree == 8192
    assert choice.residue_count <= 3


def test_deeper_segments_need_more_bits():
    shallow = WorkloadProfile(value_bits=6, fan_in=64, plain_mult_depth=1)
    deep = WorkloadProfile(value_bits=6, fan_in=64, plain_mult_depth=8)
    assert (required_data_bits(deep, 8192)[0]
            > required_data_bits(shallow, 8192)[0])


def test_ckks_needs_fewer_bits_for_depth():
    """§5.6: CKKS reaches the same iteration depth with smaller parameters."""
    deep = WorkloadProfile(value_bits=6, fan_in=64, plain_mult_depth=6)
    bfv_bits = required_data_bits(deep, 8192, SchemeType.BFV)[0]
    ckks_bits = required_data_bits(deep, 8192, SchemeType.CKKS)[0]
    assert ckks_bits < bfv_bits


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    value_bits=st.integers(min_value=2, max_value=8),
    fan_in=st.integers(min_value=1, max_value=4096),
    rotations=st.integers(min_value=0, max_value=64),
    masks=st.integers(min_value=0, max_value=2),
    depth=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40)
def test_selection_monotone_property(value_bits, fan_in, rotations, masks, depth):
    """Harder workloads never select smaller moduli, and every selection is
    128-bit secure with a valid residue split."""
    base = WorkloadProfile(value_bits=value_bits, fan_in=fan_in,
                           rotations=rotations, masked_permutations=masks,
                           plain_mult_depth=depth)
    harder = WorkloadProfile(value_bits=value_bits, fan_in=fan_in,
                             rotations=rotations, masked_permutations=masks + 1,
                             plain_mult_depth=depth + 1)
    try:
        easy = select_parameters(base)
        hard = select_parameters(harder)
    except ValueError:
        return   # infeasible corner: nothing to compare
    assert hard.data_bits >= easy.data_bits
    for choice in (easy, hard):
        from repro.hecore.security import meets_security

        assert meets_security(choice.poly_degree, choice.total_bits)
        assert sum(choice.residue_bits[:-1]) == choice.data_bits
        assert all(b <= 60 for b in choice.residue_bits)


def test_impossible_workload_raises():
    monster = WorkloadProfile(value_bits=12, fan_in=2**20,
                              plain_mult_depth=40, masked_permutations=50)
    with pytest.raises(ValueError):
        select_parameters(monster)
