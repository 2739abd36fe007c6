#!/usr/bin/env python
"""Serve encrypted KNN over the offload runtime — loopback TCP and the
simulated radio.

Starts an :class:`OffloadServer` on an ephemeral loopback port, connects an
:class:`OffloadClient`, provisions an encrypted point database, and
classifies queries with every server-side step crossing the wire as real
CHOF frames.  Then repeats one classification over a
:class:`SimulatedLink`, showing the analytical Bluetooth cost model
(§5.2's byte/round accounting) driven by the exact same protocol traffic.

Run:  python examples/offload_runtime.py
"""

import asyncio

import numpy as np

from repro.apps.knn import KnnOffloadService, RemoteKnn
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.platforms.radio import BluetoothLink
from repro.runtime import OffloadClient, OffloadServer, SimulatedLink


async def main():
    params = small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                   data_bits=(30, 24, 24))
    rng = np.random.default_rng(7)
    points = rng.normal(size=(16, 4))
    labels = rng.integers(0, 3, size=16)

    # ------------------------------------------------------- loopback TCP
    server = OffloadServer(params, verbose=False)
    KnnOffloadService.install(server)
    host, port = await server.start()
    print(f"offload server listening on {host}:{port}")

    ctx = CkksContext(params, seed=2024)
    client = await OffloadClient(params, host, port).connect()
    print(f"session {client.session_id} established "
          f"(queue limit {client.server_queue_limit})")

    knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
    await knn.add_points(points, labels)
    print(f"provisioned {knn.size} encrypted points")

    for i in range(3):
        query = rng.normal(size=4)
        result = await knn.classify(query)
        truth = np.sum((points - query) ** 2, axis=1)
        print(f"query {i}: label {result.label}, nearest "
              f"{result.neighbor_indices.tolist()}, max distance error "
              f"{np.max(np.abs(result.distances - truth)):.2e}")

    stats = server.metrics.get(client.session_id).snapshot()
    print(f"server saw {stats['requests']} requests, "
          f"{stats['bytes_up']} B up / {stats['bytes_down']} B down, "
          f"p50 latency {stats['latency_p50_ms']:.1f} ms")
    await client.close()
    await server.stop()

    # ------------------------------------------------- simulated Bluetooth
    client_end, server_end = SimulatedLink.pair()
    sim_server = OffloadServer(params)
    KnnOffloadService.install(sim_server)
    serve_task = asyncio.ensure_future(sim_server.serve_transport(server_end))

    ctx2 = CkksContext(params, seed=2024)
    sim_client = await OffloadClient(params,
                                     transport=client_end).connect()
    sim_knn = RemoteKnn(sim_client, ctx2, k=3, variant="collapsed",
                        symmetric=False)
    await sim_knn.add_points(points, labels)
    result = await sim_knn.classify(rng.normal(size=4))
    ledger, radio = sim_client.ledger, BluetoothLink()
    link_s = radio.session_time(ledger.total_bytes, ledger.rounds)
    print(f"\nsimulated link: label {result.label}; ledger charged "
          f"{ledger.bytes_up} B up / {ledger.bytes_down} B down over "
          f"{ledger.rounds} round(s)")
    print(f"Bluetooth session time {link_s * 1e3:.1f} ms, "
          f"radio energy {ledger.communication_energy(radio) * 1e3:.2f} mJ")
    await sim_client.close()
    await sim_server.stop()
    serve_task.cancel()


if __name__ == "__main__":
    asyncio.run(main())
