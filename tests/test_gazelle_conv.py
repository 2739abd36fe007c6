"""The server-optimized (Gazelle-style) conv baseline vs CHOCO's."""

import numpy as np
import pytest

from repro.baselines.gazelle_conv import GazelleStyleConv2d
from repro.core.linalg import Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d


@pytest.fixture(scope="module")
def layer():
    spec = Conv2dSpec(1, 2, 5, 5, 3)
    rng = np.random.default_rng(11)
    weights = rng.integers(-2, 3, (2, 1, 3, 3))
    image = rng.integers(0, 4, (1, 5, 5))
    return spec, weights, image


def test_gazelle_conv_is_correct(bfv, layer):
    spec, weights, image = layer
    conv = GazelleStyleConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    ct = bfv.encrypt(conv.pack_input(image).astype(np.int64))
    got = conv.unpack_outputs(bfv.decrypt(conv(ct)))
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(conv.reference(image), t))


def test_gazelle_conv_burns_more_budget_than_choco(bfv, layer):
    """§5.5: the baseline's masked permutations cost real noise budget that
    rotational redundancy does not."""
    spec, weights, image = layer

    gazelle = GazelleStyleConv2d(bfv, spec, weights)
    choco = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(gazelle.required_rotation_steps()
                         | choco.required_rotation_steps())

    ct_g = bfv.encrypt(gazelle.pack_input(image).astype(np.int64))
    budget_gazelle = bfv.noise_budget(gazelle(ct_g))

    ct_c = choco.encrypt_input(image)
    (out_c,) = choco(ct_c)
    budget_choco = bfv.noise_budget(out_c)

    assert budget_choco > budget_gazelle
    # The gap is on the order of a masking multiply: ~log2(t) bits.
    t_bits = bfv.params.plain_modulus.bit_length()
    assert budget_choco - budget_gazelle >= t_bits - 6


def test_gazelle_conv_packs_denser(bfv, layer):
    """The flip side: without margins the baseline's span is smaller —
    density is what redundancy trades away (§3.3)."""
    spec, weights, _ = layer
    gazelle = GazelleStyleConv2d(bfv, spec, weights)
    choco = TiledEncryptedConv2d(bfv, spec, weights)
    assert gazelle.span <= choco.packing.layout.span


def test_gazelle_conv_costs_more_operations(bfv, layer):
    spec, weights, image = layer
    gazelle = GazelleStyleConv2d(bfv, spec, weights)
    choco = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(gazelle.required_rotation_steps()
                         | choco.required_rotation_steps())

    ct_g = bfv.encrypt(gazelle.pack_input(image).astype(np.int64))
    m0, r0 = bfv.counts["multiply_plain"], bfv.counts["rotate"]
    gazelle(ct_g)
    gazelle_mults = bfv.counts["multiply_plain"] - m0
    gazelle_rots = bfv.counts["rotate"] - r0

    ct_c = choco.encrypt_input(image)
    m0, r0 = bfv.counts["multiply_plain"], bfv.counts["rotate"]
    choco(ct_c)
    choco_mults = bfv.counts["multiply_plain"] - m0
    choco_rots = bfv.counts["rotate"] - r0

    assert gazelle_mults > 2 * choco_mults      # masking multiplies pile up
    assert gazelle_rots > choco_rots


def test_gazelle_conv_validations(bfv):
    with pytest.raises(ValueError):
        GazelleStyleConv2d(bfv, Conv2dSpec(2, 2, 5, 5, 3),
                           np.ones((2, 2, 3, 3)))
    with pytest.raises(ValueError):
        GazelleStyleConv2d(bfv, Conv2dSpec(1, 64, 5, 5, 3),
                           np.ones((64, 1, 3, 3)))