"""Tests for encrypted KNN and K-Means."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.kmeans import EncryptedKMeans
from repro.apps.knn import EncryptedKnn
from repro.core.protocol import ClientAidedSession


@pytest.fixture(scope="module")
def clusters():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 0.2, (6, 3))
    b = rng.normal(2.0, 0.2, (6, 3))
    return np.vstack([a, b]), np.array([0] * 6 + [1] * 6)


def _vote(points, labels, query, k):
    nearest = np.argsort(np.sum((points - query) ** 2, axis=1))[:k]
    return np.bincount(labels[nearest]).argmax()


def test_knn_classifies_both_clusters(ckks, clusters):
    points, labels = clusters
    knn = EncryptedKnn(ckks, points, labels, k=3, variant="collapsed")
    assert knn.classify(np.array([0.1, -0.1, 0.0])).label == 0
    assert knn.classify(np.array([2.1, 1.9, 2.0])).label == 1


def test_knn_matches_reference(ckks, clusters):
    points, labels = clusters
    knn = EncryptedKnn(ckks, points, labels, k=3, variant="dimension-major")
    for query in (np.array([0.5, 0.5, 0.5]), np.array([1.4, 1.6, 1.5])):
        assert knn.classify(query).label == _vote(points, labels, query, 3)


def test_knn_single_interaction(ckks, clusters):
    """§5.1: classifying a new point needs one client-server interaction."""
    points, labels = clusters
    knn = EncryptedKnn(ckks, points, labels, k=1, variant="collapsed")
    session = ClientAidedSession(ckks)
    knn.classify(np.array([2.0, 2.0, 2.0]), session=session)
    assert session.ledger.client_encrypt_ops == 1   # one query ciphertext
    assert session.ledger.client_decrypt_ops == 1   # one collapsed result


def test_knn_distances_are_correct(ckks, clusters):
    points, labels = clusters
    knn = EncryptedKnn(ckks, points, labels, k=3, variant="stacked-point")
    query = np.array([1.0, 1.0, 1.0])
    result = knn.classify(query)
    want = np.sum((points - query) ** 2, axis=1)
    assert np.allclose(result.distances, want, atol=0.05)


def test_knn_validates_inputs(ckks, clusters):
    points, labels = clusters
    with pytest.raises(ValueError):
        EncryptedKnn(ckks, points, labels[:-1])
    with pytest.raises(ValueError):
        EncryptedKnn(ckks, points, labels, k=0)
    with pytest.raises(ValueError):
        EncryptedKnn(ckks, points, labels, variant="nonsense")


def test_knn_database_grows_across_contributions(ckks, clusters):
    """§5.1: the server aggregates encrypted points from many contributors;
    batches stay separately packed (the server never decrypts)."""
    points, labels = clusters
    knn = EncryptedKnn(ckks, points[:6], labels[:6], k=3, variant="collapsed")
    assert knn.size == 6
    # With only cluster-0 points stored, everything classifies as 0.
    assert knn.classify(np.array([2.0, 2.0, 2.0])).label == 0
    knn.add_points(points[6:], labels[6:])
    assert knn.size == 12
    assert len(knn._batches) == 2
    # Now the second cluster's neighborhood wins where it should.
    far = np.array([2.0, 2.0, 2.0])
    assert knn.classify(far).label == _vote(points, labels, far, 3) == 1
    assert knn.classify(np.array([0.0, 0.0, 0.0])).label == 0


def test_knn_add_points_validates(ckks, clusters):
    points, labels = clusters
    knn = EncryptedKnn(ckks, points, labels)
    with pytest.raises(ValueError):
        knn.add_points(points[:2], [0])
    with pytest.raises(ValueError):
        knn.add_points(np.ones((2, 5)), [0, 1])


def test_knn_client_import_loads_no_runtime_module():
    """The KNN client drives the runtime by duck type: a fresh interpreter
    that imports ``repro.apps.knn`` loads no ``repro.runtime`` module."""
    code = ("import sys, repro.apps.knn; print(*sorted(m for m in sys.modules"
            " if m.startswith('repro.runtime')))")
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []


def test_kmeans_matches_reference(ckks, clusters):
    points, _ = clusters
    km = EncryptedKMeans(ckks, points, n_clusters=2)
    init = points[[0, 6]] + 0.05
    got = km.run(init, max_iterations=6)
    want = EncryptedKMeans.reference(points, init, max_iterations=6)
    assert np.array_equal(got.assignments, want.assignments)
    assert np.allclose(got.centroids, want.centroids, atol=0.02)
    assert got.converged


def test_kmeans_iterates_until_convergence(ckks, clusters):
    points, _ = clusters
    km = EncryptedKMeans(ckks, points, n_clusters=2)
    session = ClientAidedSession(ckks)
    result = km.run(points[[1, 7]], max_iterations=8, session=session)
    assert result.converged
    # K-Means iterates client-server interaction (§5.1): multiple rounds.
    assert session.ledger.client_encrypt_ops >= 2 * result.iterations
    assert session.ledger.client_decrypt_ops > 0
