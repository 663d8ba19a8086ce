"""Dense reference implementations that the sparse library code is tested
against.

These are the straightforward O(n_v^2)-memory formulations: the all-pairs kNN
graph, the distance-matrix graph cost, the residual-matrix reconstruction
cost, and the n x n_v binary indicator matrices with the dense normal
equations of the consensus and codes updates. They are meant for small
problems only. best_kmeans runs the k-means restarts one at a time, with one
boolean-mask mean per cluster.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from imvc.metrics import _kmeans_pp_init


def build_indicator(availability: Sequence[int], n: int) -> np.ndarray:
    """Binary n x n_v indicator: g[i, j] = 1 iff instance column j belongs to
    sample i."""
    ids = np.asarray(availability, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("availability must be a non-empty 1-D sequence of sample ids")
    if ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"invalid availability: sample ids must lie in 0..{n - 1}")
    if np.unique(ids).size != ids.size:
        raise ValueError("invalid availability: duplicate sample id")
    g = np.zeros((n, ids.size), dtype=np.int64)
    g[ids, np.arange(ids.size)] = 1
    return g


def auto_sigma(pts: np.ndarray, view_id: int = 0, max_instances: int = 2000) -> float:
    """Median pairwise distance of the (evenly subsampled) instance rows."""
    if pts.shape[0] > max_instances:
        idx = np.linspace(0, pts.shape[0] - 1, max_instances).astype(np.int64)
        pts = pts[idx]
    sigma = float(np.median(pdist(pts)))
    if sigma == 0.0:
        raise ValueError(
            f"view {view_id}: degenerate sigma (median pairwise distance is "
            "zero; are the instances all identical?)"
        )
    return sigma


def gaussian_knn_graph(data: np.ndarray, k: int, view_id: int = 0):
    """Dense (S, sigma) for a features x instances matrix, from the full
    distance matrix."""
    n = data.shape[1]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_available={n}, got {k}")
    pts = data.T
    sigma = auto_sigma(pts, view_id)
    sq = cdist(pts, pts, metric="sqeuclidean")
    np.fill_diagonal(sq, np.inf)
    neighbors = np.argpartition(sq, k - 1, axis=1)[:, :k]
    kernel = np.exp(-sq / (2.0 * sigma * sigma))
    mask = np.zeros((n, n), dtype=bool)
    mask[np.repeat(np.arange(n), k), neighbors.reshape(-1)] = True
    s = np.where(mask, kernel, 0.0)
    s = np.maximum(s, s.T)
    np.fill_diagonal(s, 0.0)
    return s, sigma


def graph_cost(p: np.ndarray, gathered: np.ndarray, w: np.ndarray) -> float:
    """sum_ij W[i, j] * ||p[:, i] - gathered[:, j]||^2 from the distance matrix."""
    return float(np.vdot(w, cdist(p.T, gathered.T, metric="sqeuclidean")))


def reconstruction_cost(x: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
    return float(np.sum((x - u @ p) ** 2))


def view_costs(ds, ws, state, lam: float, beta: float) -> np.ndarray:
    """Per-view costs with dense W and the consensus gathered through G."""
    costs = np.empty(ds.n_views)
    for v, (view, ids, w) in enumerate(zip(ds.views, ds.availability, ws)):
        u, p = state.bases[v], state.codes[v]
        gathered = state.consensus @ build_indicator(ids, ds.n)
        costs[v] = (
            reconstruction_cost(view.data, u, p)
            + beta * np.abs(p).sum()
            + lam * graph_cost(p, gathered, w)
        )
    return costs


def update_consensus(codes, ws, availability, n: int, weights, r: float) -> np.ndarray:
    """Q = (sum_v a_v^r P_v W_v G_v^T) (sum_v a_v^r G_v D_v G_v^T)^-1."""
    c = codes[0].shape[0]
    rhs = np.zeros((c, n))
    normal = np.zeros((n, n))
    for p, w, ids, a in zip(codes, ws, availability, weights):
        g = build_indicator(ids, n)
        rhs += a**r * (p @ w @ g.T)
        normal += a**r * (g @ np.diag(w.sum(axis=1)) @ g.T)
    return np.linalg.solve(normal, rhs.T).T


def update_codes(x, u, consensus, ids, w, lam: float, beta: float) -> np.ndarray:
    """Soft-thresholded (X^T U + lam W (Q G)^T) / h, column by column."""
    gathered = consensus @ build_indicator(ids, consensus.shape[1])
    h = 1.0 + lam * w.sum(axis=1)
    v = (x.T @ u + lam * (w @ gathered.T)).T / h
    thr = beta / (2.0 * h)
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def lloyd(
    pts: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
    history: Optional[list] = None,
) -> tuple[np.ndarray, float]:
    centers = _kmeans_pp_init(pts, k, rng)
    labels = np.full(pts.shape[0], -1)
    for _ in range(max_iter):
        dist = cdist(pts, centers, metric="sqeuclidean")
        new_labels = dist.argmin(axis=1)
        point_cost = dist[np.arange(pts.shape[0]), new_labels]
        if history is not None:
            history.append(float(point_cost.sum()))
        empty = np.setdiff1d(np.arange(k), new_labels)
        if empty.size:
            # deterministic repair: relocate to the currently worst-fit points
            farthest = np.argsort(point_cost)[::-1]
            for slot, cluster in enumerate(empty):
                centers[cluster] = pts[farthest[slot]]
            continue
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            centers[cluster] = pts[labels == cluster].mean(axis=0)
    dist = cdist(pts, centers, metric="sqeuclidean")
    labels = dist.argmin(axis=1)
    inertia = float(dist[np.arange(pts.shape[0]), labels].sum())
    return labels, inertia


def best_kmeans(
    representation: np.ndarray, k: int, restarts: int, seed: int, max_iter: int
) -> tuple[np.ndarray, float]:
    pts = np.ascontiguousarray(representation.T, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError("representation contains non-finite values")
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k must satisfy 1 <= k <= n={pts.shape[0]}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    children = np.random.SeedSequence(seed).spawn(restarts)
    best_labels, best_inertia = None, np.inf
    for child in children:
        labels, inertia = lloyd(pts, k, np.random.default_rng(child), max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia
