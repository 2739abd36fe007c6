#!/usr/bin/env python
"""Client-aided encrypted DNN inference, functionally, end to end.

A resource-constrained "client" classifies a synthetic digit image without
ever revealing it to the "server": every linear layer runs under BFV on the
server; the client decrypts intermediate results, applies ReLU/pooling/
requantization in plaintext (refreshing the noise budget), re-encrypts, and
uploads — the protocol of Figure 3.

The demo network is sized to fit fast parameters; the full Table 5 networks
are priced with the same machinery by the table5 row of benchmarks/figures.py.

Run:  python examples/encrypted_mnist_inference.py
"""

import numpy as np

from repro.apps.dnn import (
    quantize_network_for_encryption,
    run_encrypted_inference,
    run_reference_inference,
)
from repro.core.protocol import ClientAidedSession
from repro.hecore.bfv import BfvContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.nn.layers import (
    ConvLayer,
    FcLayer,
    FlattenLayer,
    MaxPoolLayer,
    Network,
    ReluLayer,
)


def make_digit(rng, kind):
    """A synthetic 10x10 'digit': vertical bar (1) or ring (0)."""
    img = np.zeros((1, 10, 10), dtype=np.int64)
    if kind == 1:
        img[0, 1:9, 4:6] = 3
    else:
        img[0, 2:8, 2:8] = 3
        img[0, 4:6, 4:6] = 0
    noise = rng.integers(0, 2, img.shape)
    return np.clip(img + noise, 0, 3)


def mini_lenet():
    return Network("mini-lenet", (1, 10, 10), [
        ConvLayer(1, 3, 3, padding="same"),
        ReluLayer(),
        MaxPoolLayer(),
        FlattenLayer(),
        FcLayer(75, 2),
    ])


def main():
    rng = np.random.default_rng(7)
    params = small_test_parameters(SchemeType.BFV, poly_degree=2048,
                                   plain_bits=17, data_bits=(30, 30, 30))
    ctx = BfvContext(params, seed=42)
    net = quantize_network_for_encryption(mini_lenet(), bits=3)

    print("classifying 6 synthetic digits under encryption...\n")
    agree = 0
    for i in range(6):
        kind = i % 2
        image = make_digit(rng, kind)
        session = ClientAidedSession(ctx)
        logits, ledger = run_encrypted_inference(ctx, net, image, bits=3,
                                                 session=session)
        reference = run_reference_inference(net, image, bits=3)
        match = np.array_equal(logits, reference)
        agree += match
        print(f"image {i} (class {kind}): encrypted logits {logits.tolist()} "
              f"-> argmax {int(np.argmax(logits))} | matches plaintext: {match}")
        if i == 0:
            print(f"    protocol: {ledger.client_encrypt_ops} enc, "
                  f"{ledger.client_decrypt_ops} dec, "
                  f"{ledger.total_bytes / 1e3:.0f} kB moved, "
                  f"{ledger.rounds} rounds")

    print(f"\nencrypted == plaintext on {agree}/6 images")
    assert agree == 6


if __name__ == "__main__":
    main()
