"""Synthetic multi-view generators shared by the test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from imvc import MultiViewDataset, ViewMatrix
from imvc.dataset import MaskSpec, apply_mask
from imvc.graph import FusedGraph, build_fused_graphs
from imvc.solver import (
    _gather,
    _times_w,
    _weighted_total,
    fit,
    update_basis,
    update_codes,
    update_consensus,
    view_costs,
)


def save_csv_dataset(ds, directory):
    """Write ds in the CSV layout of the interchange format, as save_dataset
    returns its paths: view_<v>.csv (savetxt, %.17e, which round-trips every
    float64), view_<v>.avail and labels.csv (%d)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"views": [], "availability": [], "labels": None}
    for view, ids in zip(ds.views, ds.availability):
        vp = directory / f"view_{view.view_id}.csv"
        ap = directory / f"view_{view.view_id}.avail"
        np.savetxt(vp, view.data, delimiter=",", fmt="%.17e")
        np.savetxt(ap, ids, fmt="%d")
        paths["views"].append(str(vp))
        paths["availability"].append(str(ap))
    if ds.labels is not None:
        paths["labels"] = str(directory / "labels.csv")
        np.savetxt(paths["labels"], ds.labels, fmt="%d")
    return paths


def identity_graph(n, view_id=0):
    """The graph-off fused graph of a view with n instances: W = I."""
    return FusedGraph(view_id=view_id, w=sp.eye_array(n, format="csr"))


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
    masked = apply_mask(
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


# The per-fit cost: one fit at a time, each sum on that fit's own arrays.
# It is the reference for view_costs, whose stacked sums must give these
# bytes for every fit of any batch.


def per_fit_reconstruction_cost(xx, xtu, u, p):
    """||X - U P||_F^2 = ||X||^2 - 2 <U^T X, P> + <(U^T U) P, P>, for any U,
    from xx = ||X||^2 and xtu = X^T U."""
    return float(xx - 2.0 * np.vdot(xtu.T, p) + np.vdot((u.T @ u) @ p, p))


def per_fit_graph_cost(p, gathered, wp, graph):
    """sum_ij W[i, j] * ||p[:, i] - gathered[:, j]||^2, given wp = W p^T."""
    if graph.is_identity:
        return float(np.sum((p - gathered) ** 2))
    d = graph.degree
    return float(
        d @ np.einsum("ij,ij->j", p, p)
        + d @ np.einsum("ij,ij->j", gathered, gathered)
        - 2.0 * np.vdot(wp, gathered.T)
    )


def per_fit_view_costs(xx, xtu, bases, codes, gathered, wp, graphs, lam, beta):
    """The (B, l) costs that view_costs gives one view at a time, each
    taken fit by fit."""
    costs = np.empty((len(lam), len(graphs)))
    for v, graph in enumerate(graphs):
        for j in range(len(lam)):
            p = codes[v][j]
            costs[j, v] = (
                per_fit_reconstruction_cost(xx[v], xtu[v][j], bases[v][j], p)
                + beta[j] * np.abs(p).sum()
                + lam[j] * per_fit_graph_cost(p, gathered[v][j], wp[v][j], graph)
            )
    return costs


# One fit's calls: fit, the block updates and view_costs take batches, and
# these run a batch of one, raising the error a failed fit records.


def _lone(update, *args):
    (out,), failed = update(*args)
    if failed:
        raise failed[0]
    return out


def lone_fit(ds, graphs, cfg):
    (state,) = fit(ds, graphs, [cfg])
    if state.error is not None:
        raise state.error
    return state


def lone_basis(x, codes):
    return _lone(update_basis, x, codes[None])


def lone_codes(x, u, consensus, ids, graph, lam, beta):
    codes, _ = update_codes(
        x, u[None], consensus[:, ids][None], graph, np.array([lam]), np.array([beta])
    )
    return codes[0]


def lone_consensus(codes, graphs, availability, n, weights, r):
    wp = [_times_w(graph, p[None]) for graph, p in zip(graphs, codes)]
    return _lone(update_consensus, wp, graphs, availability, n, np.asarray(weights)[None], [r])


def lone_costs(ds, graphs, state, cfg):
    """Per-view costs e_v of any one state, scored as fit scores its initial
    state: each variable stacked as a batch of one, the consensus gathered
    by _gather and W P^T from _times_w, whose layouts the cost sums' bits
    follow (a plain consensus[:, ids] is C-ordered, the gather F-ordered)."""
    lam, beta, costs = np.array([cfg.lam]), np.array([cfg.beta]), []
    for view, u, p, ids, graph in zip(ds.views, state.bases, state.codes, ds.availability, graphs):
        x, u, p = view.data, u[None], p[None]
        gathered = _gather(state.consensus[None], ids)
        xx = np.einsum("ij,ij->", x, x)
        wp = _times_w(graph, p)
        costs.append(view_costs(xx, x.T @ u, u, p, gathered, wp, graph, lam, beta)[0])
    return np.array(costs)


def lone_objective(ds, graphs, state, cfg):
    """Weighted total cost sum_v a_v^r e_v of any one state."""
    return _weighted_total(state.weights, lone_costs(ds, graphs, state, cfg), cfg.r)
