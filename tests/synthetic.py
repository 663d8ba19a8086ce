"""Synthetic multi-view generators shared by the test modules."""

from __future__ import annotations

import numpy as np

from imvc import MultiViewDataset, ViewMatrix
from imvc.dataset import MaskSpec, apply_random_missing_mask
from imvc.graph import build_fused_graphs


def _complete_dataset(per_view_data, labels=None):
    views = tuple(ViewMatrix(view_id=v, data=d) for v, d in enumerate(per_view_data))
    n = per_view_data[0].shape[1]
    return MultiViewDataset(
        views=views,
        n=n,
        availability=tuple(np.arange(n, dtype=np.int64) for _ in per_view_data),
        labels=labels,
    )


def multiview_blobs(
    n=150,
    n_clusters=3,
    dims=(6, 8, 10),
    noise=0.5,
    separation=10.0,
    seed=0,
):
    """Balanced Gaussian blobs observed through one random view per dim entry.

    Each view draws its own centroids, rescaled so the smallest inter-centroid
    distance is `separation`; the per-coordinate noise std is chosen so the
    expected noise magnitude equals `noise` times that distance.
    """
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_clusters), n // n_clusters)
    labels = np.concatenate([labels, np.arange(n - labels.size) % n_clusters])
    labels = np.sort(labels.astype(np.int64))
    data = []
    for m in dims:
        centroids = rng.normal(size=(n_clusters, m))
        gaps = [
            np.linalg.norm(centroids[i] - centroids[j])
            for i in range(n_clusters)
            for j in range(i + 1, n_clusters)
        ]
        centroids *= separation / min(gaps)
        sigma = noise * separation / np.sqrt(m)
        points = centroids[labels] + sigma * rng.normal(size=(n, m))
        data.append(points.T)
    return _complete_dataset(data, labels)


def multiview_moons(n=300, dims=(4, 5, 6), noise=0.06, seed=0):
    """Two interleaved half-moons embedded linearly into each view.

    The same 2-D moons are shared by all views; each view applies its own
    random orthonormal 2->m embedding and adds Gaussian noise scaled by the
    moon radius.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    t1 = rng.uniform(0.0, np.pi, size=half)
    t2 = rng.uniform(0.0, np.pi, size=n - half)
    moon1 = np.column_stack([np.cos(t1), np.sin(t1)])
    moon2 = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    base = np.vstack([moon1, moon2])
    labels = np.concatenate(
        [np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)]
    )
    data = []
    for m in dims:
        embed, _ = np.linalg.qr(rng.normal(size=(m, 2)))
        points = base @ embed.T + noise * rng.normal(size=(n, m))
        data.append(points.T)
    return _complete_dataset(data, labels)


def masked_problem(full, rate=0.3, mask_seed=0, k=5, gamma=1.0):
    """Mask a complete dataset and build its fused graphs."""
    masked = apply_random_missing_mask(
        full, MaskSpec("random-missing", rate, seed=mask_seed)
    )
    return masked, build_fused_graphs(masked, k=k, gamma=gamma)


def random_problem(seed, l=2, n=6, c=2, dims=None, rate=0.3, k=2, gamma=1.0):
    """Small unstructured random instance for update-rule oracles."""
    rng = np.random.default_rng(seed)
    dims = dims or tuple(rng.integers(c + 1, c + 5) for _ in range(l))
    data = [rng.normal(size=(m, n)) for m in dims]
    full = _complete_dataset(data)
    if rate:
        return masked_problem(full, rate=rate, mask_seed=seed + 1, k=k, gamma=gamma)
    return full, build_fused_graphs(full, k=k, gamma=gamma)


def random_state(ds, c, seed, zero=False):
    """Arbitrary feasible solver state (orthonormal bases, simplex weights)."""
    from imvc import SolverState

    rng = np.random.default_rng(seed)
    bases, codes = [], []
    for view in ds.views:
        q, _ = np.linalg.qr(rng.normal(size=(view.n_features, c)))
        bases.append(q)
        codes.append(
            np.zeros((c, view.n_available)) if zero else rng.normal(size=(c, view.n_available))
        )
    weights = rng.uniform(0.2, 1.0, size=ds.n_views)
    weights /= weights.sum()
    return SolverState(
        bases=tuple(bases),
        codes=tuple(codes),
        consensus=np.zeros((c, ds.n)) if zero else rng.normal(size=(c, ds.n)),
        weights=weights,
    )
