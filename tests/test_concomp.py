"""stages/concomp.dense_component_labels against a BFS reference."""

from collections import deque

import numpy as np
import pytest

from q_digest_ray.stages.concomp import dense_component_labels


def _bfs_labels(adj: np.ndarray) -> np.ndarray:
    n = len(adj)
    nbrs = [np.flatnonzero(adj[i]) for i in range(n)]
    labels = np.full(n, -1)
    for s in range(n):  # ascending: s is its component's minimum
        if labels[s] >= 0:
            continue
        labels[s] = s
        q = deque([s])
        while q:
            for v in nbrs[q.popleft()]:
                if labels[v] < 0:
                    labels[v] = s
                    q.append(v)
    return labels


def _path(order: np.ndarray) -> np.ndarray:
    """Adjacency (with self loops) of the path visiting ``order``."""
    n = len(order)
    adj = np.eye(n, dtype=bool)
    adj[order[:-1], order[1:]] = True
    adj[order[1:], order[:-1]] = True
    return adj


def _orders(n: int) -> dict:
    return {
        "sorted": np.arange(n),
        "reversed": np.arange(n)[::-1],
        "random": np.random.default_rng(7).permutation(n),
        # evens ascending, then odds descending: both ends hold small ids
        "split": np.r_[np.arange(0, n, 2), np.arange(n - 1, 0, -2)],
    }


@pytest.mark.parametrize("name", ["sorted", "reversed", "random", "split"])
def test_dense_labels_path_orders(name):
    adj = _path(_orders(512)[name])
    labels = dense_component_labels(adj)
    np.testing.assert_array_equal(labels, _bfs_labels(adj))
    assert (labels == 0).all()


@pytest.mark.parametrize("seed", range(6))
def test_dense_labels_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    p = float(rng.choice([0.0, 0.002, 0.005, 0.01, 0.05]))
    upper = np.triu(rng.random((n, n)) < p, 1)
    adj = upper | upper.T | np.eye(n, dtype=bool)
    np.testing.assert_array_equal(dense_component_labels(adj), _bfs_labels(adj))


def test_dense_labels_max_cluster_path():
    """A 4,096-node path (semdedup_prune's ``max_cluster``) in random id
    order: one component labeled by its minimum."""
    adj = _path(np.random.default_rng(11).permutation(4096))
    labels = dense_component_labels(adj)
    np.testing.assert_array_equal(labels, _bfs_labels(adj))
    assert (labels == 0).all()
