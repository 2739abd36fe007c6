"""Client-aided encrypted DNN inference (§5.1, Table 5).

Two complementary paths, mirroring the paper's own methodology (§5.2):

* :class:`ClientAidedDnnPlan` — the **analytic** plan for full-scale
  networks: per-layer ciphertext counts from CHOCO's redundant packing,
  which yield communication bytes, client encryption/decryption operation
  counts, and (through a :class:`ClientCostModel`) client time and energy.
  This is how the paper itself computes client costs — by counting
  operations and multiplying by per-operation hardware/software cost.

* :func:`run_encrypted_inference` — a **functional** end-to-end encrypted
  inference that actually runs every linear layer under BFV on a (small)
  quantized network, with the client decrypting, applying ReLU/pool/
  requantization, and re-encrypting between layers.  Used by tests and
  examples to prove the protocol computes the right thing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ir import ensure_galois_keys
from repro.core.linalg import BsgsMatVec, Conv2dSpec
from repro.core.packing import RedundantPacking
from repro.core.protocol import ClientAidedSession, ClientCostModel, CostLedger
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.modmath import next_power_of_two
from repro.hecore.params import (
    EncryptionParameters,
    PARAMETER_SET_A,
    PARAMETER_SET_B,
    SchemeType,
)
from repro.nn.layers import ConvLayer, FcLayer, FireLayer, Network
from repro.nn.quantize import quantize_tensor
from repro.platforms.client_device import Imx6SoftwareClient


def choose_dnn_parameters(network: Network) -> EncryptionParameters:
    """CHOCO's parameter pick per network (§5.3).

    MNIST-scale networks fit parameter set B (N=4096); CIFAR-scale networks
    with wider accumulations use set A (N=8192).  Both keep k=3.
    """
    c, h, w = network.input_shape
    return PARAMETER_SET_B if h <= 28 and c == 1 else PARAMETER_SET_A


@dataclass(frozen=True)
class LayerRound:
    """One client-server round: upload inputs, download one layer's outputs."""

    name: str
    up_cts: int
    down_cts: int
    server_rotations: int
    server_plain_mults: int
    macs: int


def _conv_span(height: int, width: int, kernel: int) -> int:
    """Slots per channel under rotational-redundancy packing."""
    window = height * width
    if kernel == 1:
        return next_power_of_two(window)
    redundancy = (kernel // 2) * (width + 1)
    return next_power_of_two(window + 2 * redundancy)


def _cts(slots: int, poly_degree: int) -> int:
    return max(1, math.ceil(slots / poly_degree))


class ClientAidedDnnPlan:
    """Analytic per-round plan for one network at one parameter set."""

    def __init__(self, network: Network, params: Optional[EncryptionParameters] = None):
        self.network = network
        self.params = params or choose_dnn_parameters(network)
        self.rounds = self._build_rounds()

    # --------------------------------------------------------------- plan
    def _build_rounds(self) -> List[LayerRound]:
        n = self.params.poly_degree
        rounds = []
        for layer, in_shape in self.network.linear_layers():
            if isinstance(layer, ConvLayer):
                rounds.append(self._conv_round(layer, in_shape, n, layer.__class__.__name__))
            elif isinstance(layer, FireLayer):
                # A fire module is two rounds: the 1x1 squeeze, then the
                # parallel expand branches computed server-side together.
                c, h, w = in_shape
                rounds.append(self._conv_round(layer.squeeze_conv, in_shape, n, "fire-squeeze"))
                mid_shape = (layer.squeeze, h, w)
                span = _conv_span(h, w, 3)
                up = _cts(layer.squeeze * span, n)
                down = _cts((layer.expand1 + layer.expand3) * span, n)
                taps = 9 + 1    # 3x3 branch taps plus the 1x1 branch
                rounds.append(LayerRound(
                    name="fire-expand",
                    up_cts=up,
                    down_cts=down,
                    server_rotations=layer.squeeze * taps,
                    server_plain_mults=layer.squeeze * taps,
                    macs=layer.expand1_conv.macs(mid_shape)
                    + layer.expand3_conv.macs(mid_shape),
                ))
            elif isinstance(layer, FcLayer):
                rounds.append(LayerRound(
                    name="fc",
                    up_cts=_cts(layer.in_features, n),
                    down_cts=_cts(layer.out_features, n),
                    server_rotations=min(layer.in_features, n) - 1,
                    server_plain_mults=min(layer.in_features, n),
                    macs=layer.macs((layer.in_features,)),
                ))
            else:
                raise TypeError(f"unhandled linear layer {layer!r}")
        return rounds

    def _conv_round(self, conv: ConvLayer, in_shape, n: int, name: str) -> LayerRound:
        c, h, w = in_shape
        out_c, out_h, out_w = conv.output_shape(in_shape)
        span = _conv_span(h, w, conv.kernel_size)
        taps = conv.kernel_size ** 2
        return LayerRound(
            name=name,
            up_cts=_cts(c * span, n),
            down_cts=_cts(out_c * span, n),
            server_rotations=c * taps - 1,
            server_plain_mults=c * taps,
            macs=conv.macs(in_shape),
        )

    # ---------------------------------------------------------- aggregates
    @property
    def encrypt_ops(self) -> int:
        """Client encryptions per inference (one per uploaded ciphertext)."""
        return sum(r.up_cts for r in self.rounds)

    @property
    def decrypt_ops(self) -> int:
        """Client decryptions per inference."""
        return sum(r.down_cts for r in self.rounds)

    def communication_bytes(self) -> int:
        """Total up+down bytes per single-image inference (Table 5 Comm.)."""
        ct = self.params.ciphertext_bytes()
        return (self.encrypt_ops + self.decrypt_ops) * ct

    def offline_key_bytes(self) -> int:
        """One-time key material the client ships to the server.

        Public key, relinearization key, and a power-of-two Galois key set
        (2·log2(N) keys generate every rotation).  Evaluation keys ship
        seed-compressed — one ``k0`` per digit plus a 32-byte seed, the
        server regenerates the uniform halves.  Unlike MPC protocols'
        per-inference preprocessing, HE keys are reusable across all
        inferences, so this is *not* part of per-inference communication —
        it amortizes to zero (§2.2's centralization argument).
        """
        n = self.params.poly_degree
        k = self.params.logical_residue_count
        digits = k - 1
        per_switch_key = digits * k * n * 8 + 32
        galois_count = 2 * (n.bit_length() - 1)
        public_key = 2 * k * n * 8
        return public_key + (galois_count + 1) * per_switch_key

    def client_crypto_time(self, cost_model: ClientCostModel) -> float:
        """Client crypto time under the batched schedule: each round's
        uploads (and downloads) run as one stacked batch, so only the first
        op of each batch pays the cost model's per-invocation overhead."""
        return sum(cost_model.encrypt_many_s(r.up_cts)
                   + cost_model.decrypt_many_s(r.down_cts)
                   for r in self.rounds)

    def client_crypto_energy(self, cost_model: ClientCostModel) -> float:
        return sum(cost_model.encrypt_many_j(r.up_cts)
                   + cost_model.decrypt_many_j(r.down_cts)
                   for r in self.rounds)

    def client_activation_time(self,
                               client: Optional[Imx6SoftwareClient] = None) -> float:
        """Plaintext client work: activations, pooling, requantization.

        ~8 simple ops per activation value (dequant, compare, requant, pack).
        """
        client = client or Imx6SoftwareClient()
        return client.plain_compute_time(8 * self.network.activation_op_count())

    def client_time(self, cost_model: ClientCostModel) -> float:
        """Total active client compute per inference (Figure 12's bars)."""
        return self.client_crypto_time(cost_model) + self.client_activation_time()

    def client_energy(self, cost_model: ClientCostModel) -> float:
        client = Imx6SoftwareClient()
        return (self.client_crypto_energy(cost_model)
                + client.energy(self.client_activation_time(client)))

    def describe(self) -> str:
        """Per-round plan report: the layer-by-layer protocol schedule."""
        ct_mb = self.params.ciphertext_bytes() / 1e6
        lines = [
            f"{self.network.name} under parameter set "
            f"{self.params.label or self.params.describe()}: "
            f"{len(self.rounds)} rounds, "
            f"{self.communication_bytes() / 1e6:.2f} MB per inference",
            f"{'round':14s} {'up':>4s} {'down':>5s} {'MB':>7s} "
            f"{'rotations':>10s} {'MACs(M)':>8s}",
        ]
        for rnd in self.rounds:
            mb = (rnd.up_cts + rnd.down_cts) * ct_mb
            lines.append(
                f"{rnd.name:14s} {rnd.up_cts:4d} {rnd.down_cts:5d} "
                f"{mb:7.2f} {rnd.server_rotations:10d} "
                f"{rnd.macs / 1e6:8.2f}"
            )
        return "\n".join(lines)

    def ledger(self, cost_model: ClientCostModel) -> CostLedger:
        """The analytic plan folded into a protocol ledger."""
        led = CostLedger()
        led.client_encrypt_ops = self.encrypt_ops
        led.client_decrypt_ops = self.decrypt_ops
        led.client_encrypt_batches = sum(1 for r in self.rounds if r.up_cts)
        led.client_decrypt_batches = sum(1 for r in self.rounds if r.down_cts)
        led.client_compute_s = self.client_time(cost_model)
        led.client_energy_j = self.client_energy(cost_model)
        ct = self.params.ciphertext_bytes()
        led.bytes_up = sum(r.up_cts for r in self.rounds) * ct
        led.bytes_down = sum(r.down_cts for r in self.rounds) * ct
        led.rounds = len(self.rounds)
        return led


# ---------------------------------------------------------------------------
# Functional encrypted inference (small networks, real HE).
# ---------------------------------------------------------------------------

def _quantized_network(network: Network, bits: int) -> Network:
    """Clone *network* with weights quantized to signed integers."""
    import copy

    net = copy.deepcopy(network)
    for layer in net.layers:
        if isinstance(layer, ConvLayer) or isinstance(layer, FcLayer):
            layer.weights = quantize_tensor(layer.weights, bits).values
        elif isinstance(layer, FireLayer):
            for conv in layer.convs:
                conv.weights = quantize_tensor(conv.weights, bits).values
    return net


def run_encrypted_inference(ctx, network: Network, image: np.ndarray,
                            bits: int = 4,
                            session: Optional[ClientAidedSession] = None
                            ) -> Tuple[np.ndarray, CostLedger]:
    """Run *network* on *image* with every linear layer under BFV.

    The network's weights and the input must already be (small) integers —
    use :func:`quantize_network_for_encryption`.  Non-linear layers run on
    the "client"; linear layers run encrypted on the "server"; intermediate
    activations are reduced to *bits*-bit magnitudes by a shift, standing in
    for the client's requantization step.

    Returns the logits and the session's cost ledger.
    """
    if ctx.params.scheme is not SchemeType.BFV:
        raise ValueError("functional encrypted inference runs under BFV")
    session = session or ClientAidedSession(ctx)
    # Every linear layer's kernel is built once; ONE merged Galois key set
    # for the whole network is read off them — no per-layer keygen below.
    kernels = _layer_kernels(ctx, network)
    ensure_galois_keys(
        ctx, *(k.required_rotation_steps() for k in kernels.values()))
    logits = _run_inference(
        network, image, bits,
        conv_fn=lambda conv, x: _encrypted_conv(session, kernels[id(conv)], x),
        fc_fn=lambda fc, x: _encrypted_fc(session, kernels[id(fc)], x),
        modulus=ctx.params.plain_modulus,
    )
    return logits, session.ledger


def run_reference_inference(network: Network, image: np.ndarray,
                            bits: int = 4) -> np.ndarray:
    """The plaintext twin of :func:`run_encrypted_inference`: identical
    quantization/requantization flow with numpy linear layers."""
    return _run_inference(
        network, image, bits,
        conv_fn=lambda conv, x: conv.forward(x),
        fc_fn=lambda fc, x: fc.forward(x),
        modulus=None,
    )


def _run_inference(network: Network, image: np.ndarray, bits: int,
                   conv_fn, fc_fn, modulus: Optional[int]) -> np.ndarray:
    limit = (1 << (bits - 1)) - 1

    def to_signed(values: np.ndarray) -> np.ndarray:
        if modulus is None:
            return values.astype(np.int64)
        values = np.mod(values, modulus)
        return np.where(values > modulus // 2, values - modulus, values)

    def requantize(values: np.ndarray) -> np.ndarray:
        peak = np.max(np.abs(values))
        if peak <= limit:
            return values.astype(np.int64)
        shift = int(np.ceil(np.log2(peak / limit)))
        return (values.astype(np.int64) >> shift)

    x = np.asarray(image)
    for layer in network.layers:
        if isinstance(layer, ConvLayer):
            x = requantize(to_signed(conv_fn(layer, x)))
        elif isinstance(layer, FireLayer):
            squeezed = requantize(to_signed(conv_fn(layer.squeeze_conv, x)))
            squeezed = np.maximum(squeezed, 0)
            e1 = to_signed(conv_fn(layer.expand1_conv, squeezed))
            e3 = to_signed(conv_fn(layer.expand3_conv, squeezed))
            x = requantize(np.maximum(np.concatenate([e1, e3]), 0))
        elif isinstance(layer, FcLayer):
            x = requantize(to_signed(fc_fn(layer, x)))
        else:
            x = layer.forward(x)
            if x.dtype != np.int64:
                x = np.rint(x).astype(np.int64)
    return x


def _layer_kernels(ctx, network: Network) -> dict:
    """``id(layer)`` -> the encrypted kernel of every offloaded layer of
    *network*: tiled convolutions (any channel count — layers whose channels
    exceed one ciphertext simply occupy several) sized from the padded
    activation shapes, baby-step/giant-step products (~2*sqrt(d) rotations
    and Galois keys instead of d - 1) for FC weights."""
    kernels = {}

    def add_conv(conv: ConvLayer, in_shape) -> None:
        p = conv.pad
        c, h, w = in_shape
        spec = Conv2dSpec(conv.in_channels, conv.out_channels,
                          h + 2 * p, w + 2 * p, conv.kernel_size)
        kernels[id(conv)] = TiledEncryptedConv2d(ctx, spec, conv.weights)

    for layer, in_shape in network.linear_layers():
        if isinstance(layer, FireLayer):
            add_conv(layer.squeeze_conv, in_shape)
            mid = layer.squeeze_conv.output_shape(in_shape)
            add_conv(layer.expand1_conv, mid)
            add_conv(layer.expand3_conv, mid)
        elif isinstance(layer, ConvLayer):
            add_conv(layer, in_shape)
        elif isinstance(layer, FcLayer):
            kernels[id(layer)] = BsgsMatVec(ctx, layer.weights)
    return kernels


def _encrypted_conv(session: ClientAidedSession, enc_conv,
                    x: np.ndarray) -> np.ndarray:
    """One conv layer offloaded: pack (with client-side zero padding up to
    the kernel's spec for 'same' convs), encrypt, upload, evaluate,
    download, decrypt, unpack."""
    p = (enc_conv.spec.height - x.shape[1]) // 2
    padded = np.pad(x, ((0, 0), (p, p), (p, p))) if p else x
    cts = [session.upload(ct) for ct in session.client_encrypt_many(
        [v.astype(np.int64) for v in enc_conv.pack_input(padded)])]
    out_cts = session.server_compute(enc_conv, cts)
    slots = session.client_decrypt_many(
        [session.download(ct) for ct in out_cts])
    return enc_conv.unpack_outputs(slots)


def _encrypted_fc(session: ClientAidedSession, mv: BsgsMatVec,
                  x: np.ndarray) -> np.ndarray:
    """One FC layer offloaded; the baby rotations share one hoisted
    key-switch decompose."""
    ct = session.upload(session.client_encrypt(mv.pack_input(x.ravel()).astype(np.int64)))
    out_ct = session.server_compute(mv, ct)
    return mv.unpack_output(session.client_decrypt(session.download(out_ct)))


def quantize_network_for_encryption(network: Network, bits: int = 4) -> Network:
    """Public alias for building an integer-weight clone of a network."""
    return _quantized_network(network, bits)
