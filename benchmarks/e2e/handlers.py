"""Served DNN operations for the e2e benchmark: ``dnn/conv`` and ``dnn/fc``.

The repository serves only KNN (``repro.apps.knn.KnnOffloadService``); the
benchmark's BFV workload needs the Table-5 slice conv -> client ReLU -> fc
behind the same runtime.  Both operations are built solely from the public
``TiledEncryptedConv2d`` and ``BsgsMatVec`` kernels.  A kernel is built on a
session's first request and cached in ``session.state``, so a cold session
pays kernel build and ``compile_ir`` exactly as a real first inference would.

Weights are a pure function of the benchmark seed, which reaches the worker
through ``FleetServer(op_config={"dnn_seed": seed})``; the client builds the
same kernels from :func:`dnn_weights` to pack, unpack and check results.
"""

import numpy as np

from repro.core.linalg import BsgsMatVec, Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d

INSTALLER = "benchmarks.e2e.handlers:install"

OP_CONV = "dnn/conv"
OP_FC = "dnn/fc"

#: conv(1 -> 4 channels, 12x12 input, 3x3 kernel) then fc(64 -> 10).
CONV_SPEC = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                       kernel_size=3)
FC_SHAPE = (10, 64)


def dnn_weights(seed: int):
    """(conv weights, fc matrix) as small signed integers, from *seed*.

    No weight is zero: the kernels skip zero taps and diagonals, and the
    rotation-key set (so the bytes of a cold session) must not depend on
    the seed.
    """
    rng = np.random.default_rng([seed, 0xD77])

    def draw(shape):
        return rng.integers(1, 4, size=shape) * rng.choice((-1, 1), size=shape)

    conv = draw((CONV_SPEC.out_channels, CONV_SPEC.in_channels,
                 CONV_SPEC.kernel_size, CONV_SPEC.kernel_size))
    return conv, draw(FC_SHAPE)


def build_kernels(ctx, seed: int):
    """The two encrypted kernels on *ctx* (client or restricted server)."""
    conv_w, fc_w = dnn_weights(seed)
    return TiledEncryptedConv2d(ctx, CONV_SPEC, conv_w), BsgsMatVec(ctx, fc_w)


def _kernels(session):
    kernels = session.state.get("dnn_kernels")
    if kernels is None:
        seed = int(session.server.op_config["dnn_seed"])
        kernels = session.state["dnn_kernels"] = build_kernels(
            session.ensure_context(), seed)
    return kernels


def conv_handler(session, request):
    return _kernels(session)[0](request.cts)


def fc_handler(session, request):
    (ct,) = request.cts
    return [_kernels(session)[1](ct)]


def install(server) -> None:
    """``FleetServer(installers=(INSTALLER,))`` entry point."""
    server.register(OP_CONV, conv_handler)
    server.register(OP_FC, fc_handler)
