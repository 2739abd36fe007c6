"""Batching algorithms vs packed algorithms (§2.1).

Two opposite ways to fill an HE ciphertext's SIMD slots:

* **Batching** (CryptoNets [22], nGraph-HE2 [6]) — one ciphertext per
  *activation element*, slots filled with that element from many inputs.
  Server arithmetic is direct SIMD (no rotations at all), throughput is
  excellent at full batches — but a single-image inference still pays for
  one ciphertext per activation, which is catastrophically inefficient
  ("highly inefficient for few inputs").

* **Packing** (Gazelle [36], LoLa [8], CHOCO) — one or more full inputs per
  ciphertext; needs rotations/permutations to align elements, optimizing
  latency.  CHOCO's rotational redundancy makes those alignments cheap.

This module provides the batched cost model so the tradeoff is measurable
against :class:`repro.apps.dnn.ClientAidedDnnPlan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.hecore.params import EncryptionParameters, seal_default_parameters
from repro.nn.layers import ConvLayer, FcLayer, FireLayer, Network


@dataclass(frozen=True)
class BatchedLayerCosts:
    """One layer boundary under element-wise batching."""

    name: str
    input_elements: int      # ciphertexts uploaded at this boundary
    output_elements: int     # ciphertexts downloaded at this boundary


class BatchedDnnPlan:
    """CryptoNets-style batched client-aided inference cost model.

    Every activation element is its own ciphertext (slots span the batch),
    so per-boundary ciphertext counts equal activation-map sizes.  Costs are
    reported per batch and per image.
    """

    def __init__(self, network: Network, batch_size: Optional[int] = None,
                 params: Optional[EncryptionParameters] = None):
        # Batched systems use large default parameters (deep circuits, no
        # client refresh in the original; here client-aided for parity).
        self.params = params or seal_default_parameters(8192)
        self.network = network
        self.batch_size = batch_size or self.params.slot_count
        if self.batch_size > self.params.slot_count:
            raise ValueError(
                f"batch {self.batch_size} exceeds {self.params.slot_count} slots"
            )
        self.layers = self._build()

    def _build(self) -> List[BatchedLayerCosts]:
        out = []
        for layer, in_shape in self.network.linear_layers():
            in_elems = int(np.prod(in_shape))
            if isinstance(layer, FireLayer):
                _, h, w = in_shape
                out.append(BatchedLayerCosts("fire-squeeze", in_elems,
                                             layer.squeeze * h * w))
                out.append(BatchedLayerCosts(
                    "fire-expand", layer.squeeze * h * w,
                    (layer.expand1 + layer.expand3) * h * w))
                continue
            out_elems = int(np.prod(layer.output_shape(in_shape)))
            name = "conv" if isinstance(layer, ConvLayer) else "fc"
            out.append(BatchedLayerCosts(name, in_elems, out_elems))
        return out

    # ------------------------------------------------------------ totals
    @property
    def upload_ciphertexts(self) -> int:
        return sum(b.input_elements for b in self.layers)

    @property
    def download_ciphertexts(self) -> int:
        return sum(b.output_elements for b in self.layers)

    def communication_bytes_per_batch(self) -> int:
        ct = self.params.ciphertext_bytes()
        return (self.upload_ciphertexts + self.download_ciphertexts) * ct

    def communication_bytes_per_image(self) -> float:
        return self.communication_bytes_per_batch() / self.batch_size

    def client_crypto_ops_per_batch(self) -> Tuple[int, int]:
        """(encryptions, decryptions) per batch — one per ciphertext."""
        return self.upload_ciphertexts, self.download_ciphertexts


def crossover_batch_size(network: Network, packed_comm_bytes: int,
                         params: Optional[EncryptionParameters] = None) -> int:
    """Smallest batch at which batching's per-image communication beats the
    packed plan's single-image communication (∞ if never)."""
    plan = BatchedDnnPlan(network, params=params)
    per_batch = plan.communication_bytes_per_batch()
    needed = math.ceil(per_batch / packed_comm_bytes)
    if needed > plan.params.slot_count:
        return -1   # never: not enough slots to amortize
    return needed
