"""Dense reference implementations that the sparse library code is tested
against.

These are the straightforward O(n_v^2)-memory formulations: the all-pairs kNN
graph, the distance-matrix graph cost, the residual-matrix reconstruction
cost, and the n x n_v binary indicator matrices with the dense normal
equations of the consensus and codes updates. They are meant for small
problems only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist


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


def gaussian_knn_graph(data: np.ndarray, k: int, sigma=None, view_id: int = 0):
    """Dense (S, sigma) for a features x instances matrix, from the full
    distance matrix."""
    n = data.shape[1]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_available={n}, got {k}")
    pts = data.T
    if sigma is None:
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
    return s, float(sigma)


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
