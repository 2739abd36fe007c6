"""Tests for client-aided DNN inference: analytic plans and functional HE."""

import numpy as np
import pytest

from repro.apps.dnn import (
    ClientAidedDnnPlan,
    choose_dnn_parameters,
    quantize_network_for_encryption,
    run_encrypted_inference,
    run_reference_inference,
)
from repro.baselines.gazelle import server_optimized_plan
from repro.core.protocol import ClientAidedSession, ClientCostModel
from repro.hecore.params import PARAMETER_SET_A, PARAMETER_SET_B
from repro.nn.layers import (
    ConvLayer,
    FcLayer,
    FireLayer,
    FlattenLayer,
    MaxPoolLayer,
    Network,
    ReluLayer,
)
from repro.nn.models import NETWORK_BUILDERS, TABLE5_REFERENCE


def mini_net() -> Network:
    """A small network that fits the functional path at N=1024."""
    return Network("mini", (2, 6, 6), [
        ConvLayer(2, 2, 3, padding="same"),
        ReluLayer(),
        MaxPoolLayer(),
        FlattenLayer(),
        FcLayer(18, 4),
    ])


def test_choose_parameters():
    assert choose_dnn_parameters(NETWORK_BUILDERS["LeNetLg"]()) is PARAMETER_SET_B
    assert choose_dnn_parameters(NETWORK_BUILDERS["VGG16"]()) is PARAMETER_SET_A


@pytest.mark.parametrize("name", list(NETWORK_BUILDERS))
def test_plan_communication_matches_table5_shape(name):
    """Table 5 Comm. column: within 2x of published, ordering preserved."""
    plan = ClientAidedDnnPlan(NETWORK_BUILDERS[name]())
    got_mb = plan.communication_bytes() / 1e6
    ref_mb = TABLE5_REFERENCE[name]["comm_mb"]
    assert ref_mb / 2 < got_mb < ref_mb * 2


def test_plan_communication_ordering():
    comm = {
        name: ClientAidedDnnPlan(NETWORK_BUILDERS[name]()).communication_bytes()
        for name in NETWORK_BUILDERS
    }
    assert comm["LeNetSm"] < comm["LeNetLg"] < comm["SqzNet"] < comm["VGG16"]


def test_plan_op_counts_positive_and_consistent():
    plan = ClientAidedDnnPlan(NETWORK_BUILDERS["LeNetLg"]())
    assert plan.encrypt_ops == sum(r.up_cts for r in plan.rounds)
    assert plan.decrypt_ops == sum(r.down_cts for r in plan.rounds)
    led = plan.ledger(ClientCostModel.software(plan.params))
    assert led.total_bytes == plan.communication_bytes()


def test_client_time_orderings():
    """Figure 12's bar ordering: software > HEAX-assisted > CHOCO-TACO."""
    from repro.accel.hwassist import HEAX

    plan = ClientAidedDnnPlan(NETWORK_BUILDERS["LeNetLg"]())
    sw = plan.client_time(ClientCostModel.software(plan.params))
    heax = plan.client_time(ClientCostModel.partial_accelerator(plan.params, HEAX))
    taco = plan.client_time(ClientCostModel.choco_taco(plan.params))
    assert taco < heax < sw
    assert sw / taco > 50    # comprehensive acceleration is transformative


def test_crypto_dominates_software_client_time():
    """Figure 2: >99% of client compute is HE, not activations."""
    plan = ClientAidedDnnPlan(NETWORK_BUILDERS["LeNetLg"]())
    model = ClientCostModel.software(plan.params)
    crypto = plan.client_crypto_time(model)
    total = plan.client_time(model)
    assert crypto / total > 0.99


def test_baseline_plan_slower_and_chattier():
    """§5.5: the SEAL-default baseline is slower; CHOCO-sw wins ~1.7x."""
    net = NETWORK_BUILDERS["VGG16"]()
    choco = ClientAidedDnnPlan(net)
    baseline = server_optimized_plan(net)
    t_choco = choco.client_time(ClientCostModel.software(choco.params))
    t_base = baseline.client_time(ClientCostModel.software(baseline.params))
    assert t_base > t_choco
    assert 1.3 < t_base / t_choco < 3.0
    assert baseline.communication_bytes() > choco.communication_bytes()


def test_plan_describe_lists_every_round():
    plan = ClientAidedDnnPlan(NETWORK_BUILDERS["VGG16"]())
    text = plan.describe()
    assert text.count("\n") >= len(plan.rounds) + 1
    assert "VGG16" in text
    assert f"{plan.communication_bytes() / 1e6:.2f} MB" in text


def test_offline_key_bytes_amortize():
    plan = ClientAidedDnnPlan(NETWORK_BUILDERS["LeNetLg"]())
    offline = plan.offline_key_bytes()
    # A public key plus relin and 2·log2(N) Galois keys, each shipped as k0
    # of every digit and one 32-byte seed (the server expands the rest).
    n, k = plan.params.poly_degree, plan.params.logical_residue_count
    keys = 1 + 2 * (n.bit_length() - 1)
    assert offline == 2 * k * n * 8 + keys * ((k - 1) * k * n * 8 + 32)
    assert offline > plan.communication_bytes()      # keys are bulky...
    # ...but one-time: over a thousand inferences they are noise.
    assert offline / 1000 < 0.05 * plan.communication_bytes()


def test_fire_layer_produces_two_rounds():
    net = Network("fire", (4, 6, 6), [FireLayer(4, 2, 3, 3)])
    plan = ClientAidedDnnPlan(net, params=PARAMETER_SET_B)
    assert [r.name for r in plan.rounds] == ["fire-squeeze", "fire-expand"]


# ------------------------------------------------------------- functional HE
def test_encrypted_inference_matches_reference(bfv):
    net = quantize_network_for_encryption(mini_net(), bits=3)
    image = np.random.default_rng(0).integers(0, 4, (2, 6, 6))
    want = run_reference_inference(net, image, bits=3)
    got, ledger = run_encrypted_inference(bfv, net, image, bits=3)
    assert np.array_equal(got, want)
    assert ledger.client_encrypt_ops == 2      # conv + fc uploads
    assert ledger.client_decrypt_ops == 2
    assert ledger.bytes_up > 0 and ledger.bytes_down > 0


def test_encrypted_inference_fire_module(bfv):
    net = quantize_network_for_encryption(
        Network("fire-mini", (2, 5, 5), [
            FireLayer(2, 2, 2, 2),
            FlattenLayer(),
            FcLayer(4 * 25, 3),
        ]),
        bits=3,
    )
    image = np.random.default_rng(1).integers(0, 3, (2, 5, 5))
    want = run_reference_inference(net, image, bits=3)
    got, ledger = run_encrypted_inference(bfv, net, image, bits=3)
    assert np.array_equal(got, want)
    assert ledger.client_encrypt_ops == 4      # squeeze, e1, e3, fc


def test_encrypted_inference_rejects_ckks(ckks):
    with pytest.raises(ValueError):
        run_encrypted_inference(ckks, mini_net(), np.zeros((2, 6, 6)))


def test_encrypted_inference_multi_ciphertext_layers(bfv):
    """A layer too wide for one ciphertext runs via tiled convolution."""
    net = quantize_network_for_encryption(
        Network("wide", (1, 10, 10), [
            ConvLayer(1, 6, 3, padding="same"),   # 6 ch x 12x12 padded window
            ReluLayer(),
            MaxPoolLayer(),
            FlattenLayer(),
            FcLayer(6 * 25, 3),
        ]),
        bits=3,
    )
    image = np.random.default_rng(5).integers(0, 3, (1, 10, 10))
    want = run_reference_inference(net, image, bits=3)
    got, ledger = run_encrypted_inference(bfv, net, image, bits=3)
    assert np.array_equal(got, want)
    # conv output: 6 channels x span 256 > one 512-slot row -> several cts.
    assert ledger.client_decrypt_ops > 2
