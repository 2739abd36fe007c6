#!/usr/bin/env python
"""Encrypted K-Nearest-Neighbors over a server-resident database (CKKS).

The offload server stores an *encrypted* point database (which could be
aggregated from many clients — the centralization benefit of §5.1) and
answers encrypted distance queries.  The client sends one encrypted query,
receives one collapsed ciphertext of squared distances, and performs the
non-linear top-k / majority vote locally.

Also contrasts the five Figure 9 packing variants on the same query.

Run:  python examples/encrypted_knn.py
"""

import numpy as np

from repro.apps.knn import EncryptedKnn
from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.protocol import ClientAidedSession
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters


def main():
    params = small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                   data_bits=(30, 24, 24))
    ctx = CkksContext(params, seed=3)

    # An "iris-like" synthetic dataset: three clusters in 4-D.
    from repro.nn.data import clustered_points

    rng = np.random.default_rng(1)
    centers = np.array([[0, 0, 0, 0], [2, 2, 0, 1], [0, 2, 2, 2]], dtype=float)
    points, labels = clustered_points(6, centers, spread=0.25, seed=1)

    print("storing 18 encrypted points on the server...")
    knn = EncryptedKnn(ctx, points, labels, k=3, variant="collapsed")

    queries = [c + rng.normal(0, 0.2, 4) for c in centers]
    correct = 0
    for i, q in enumerate(queries):
        session = ClientAidedSession(ctx)
        result = knn.classify(q, session=session)
        ok = result.label == i
        correct += ok
        print(f"query near class {i}: predicted {result.label} "
              f"(neighbors {result.neighbor_indices.tolist()}) "
              f"| 1 round, {session.ledger.total_bytes / 1e3:.0f} kB")
    print(f"\naccuracy: {correct}/3\n")

    print("packing-variant tradeoffs for this query shape (Figure 9 / §5.4):")
    problem = DistanceProblem(n_points=18, dims=4)
    for name, cls in KERNEL_VARIANTS.items():
        kernel = cls(ctx, problem)
        ups = len(kernel.query_slots(queries[0]))
        db = len(kernel.pack_points(points))
        print(f"  {name:18s} database cts: {db:2d}   query cts: {ups:2d}")


if __name__ == "__main__":
    main()
