"""Cluster the consensus representation and score the result.

evaluate_clustering runs restarted Lloyd iterations with k-means++ seeding on
the columns of the representation and scores the best restart's labels. The
restarts run in lockstep, one stacked distance computation per Lloyd step,
and give the same labels and inertia, bit for bit, as running them one at a
time. accuracy uses the optimal one-to-one cluster-to-class assignment, nmi
normalizes mutual information by the geometric mean of the two entropies,
and purity is the majority-class fraction per predicted cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .dataset import thread_map


@dataclass(frozen=True)
class ClusteringResult:
    predicted: np.ndarray
    acc: float
    nmi: float
    purity: float


def _check_labels(true_labels, predicted) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"label vectors must be 1-D and equally long, got {t.shape} and {p.shape}")
    if t.size == 0:
        raise ValueError("label vectors must be non-empty")
    if t.min() < 0 or p.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return t, p


def _contingency(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    return table


def accuracy(true_labels, predicted) -> float:
    """Fraction correct under the best one-to-one cluster-to-class map."""
    t, p = _check_labels(true_labels, predicted)
    table = _contingency(t, p)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum()) / t.size


def nmi(true_labels, predicted) -> float:
    """Mutual information over the geometric mean of the two entropies.

    Returns 1.0 when both partitions are a single cluster and 0.0 when exactly
    one of them is (no information to share).
    """
    t, p = _check_labels(true_labels, predicted)
    table = _contingency(t, p)
    n = t.size
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    # serial accumulation keeps the arithmetic reproducible term by term
    h_t = 0.0
    for a in row:
        if a > 0:
            h_t -= (a / n) * math.log(a / n)
    h_p = 0.0
    for b in col:
        if b > 0:
            h_p -= (b / n) * math.log(b / n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    info = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                info += (nij / n) * math.log(n * nij / (row[i] * col[j]))
    return float(min(max(info / math.sqrt(h_t * h_p), 0.0), 1.0))


def purity(true_labels, predicted) -> float:
    """Mean over predicted clusters of the majority true-class count."""
    t, p = _check_labels(true_labels, predicted)
    table = _contingency(t, p)
    return int(table.max(axis=0).sum()) / t.size


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        d = np.sum((pts - centers[i - 1]) ** 2, axis=1)
        closest = np.minimum(closest, d)
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:  # all remaining points coincide with a chosen center
            idx = rng.integers(n)
        centers[i] = pts[idx]
    return centers


def _centre_means(pts: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(m, k, c) cluster means of the (m, n) restart labels, all clusters
    non-empty, each equal bit for bit to pts[labels[j] == cluster].mean(axis=0).
    """
    m, k = counts.shape
    n = pts.shape[0]
    if pts.shape[1] == 1:
        # mean sums a one-column slice pairwise, not in row order
        return np.array(
            [[pts[row == cluster].mean(axis=0) for cluster in range(k)] for row in labels]
        )
    # the product with a one-hot (m*k, n) CSC matrix walks its columns in
    # order, so it adds each cluster's points in row order, as mean does
    bins = labels + (np.arange(m) * k)[:, None]
    onehot = sp.csc_array(
        (np.ones(m * n), bins.T.ravel(), np.arange(0, m * n + 1, m)), shape=(m * k, n)
    )
    return (onehot @ pts).reshape(m, k, -1) / counts[:, :, None]


def _lloyd(pts: np.ndarray, k: int, children, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) labels and the m inertias of the restarts that the m seed
    sequences `children` seed, run in lockstep."""
    m, (n, c) = len(children), pts.shape
    centers = np.stack(
        [_kmeans_pp_init(pts, k, np.random.default_rng(child)) for child in children]
    )
    labels = np.full((m, n), -1)
    inertia = np.empty(m)
    active = np.arange(m)  # restarts whose Lloyd iterations still run
    rows = np.arange(n)
    for step in range(max_iter + 1):
        # one cdist over the stacked centres: each pair is computed on its own,
        # so every restart's distances carry the bits of its own cdist
        dist = cdist(pts, centers[active].reshape(-1, c), metric="sqeuclidean")
        dist = dist.reshape(n, active.size, k)
        new_labels = dist.argmin(axis=2).T
        counts = np.bincount(
            (new_labels + (np.arange(active.size) * k)[:, None]).ravel(),
            minlength=active.size * k,
        ).reshape(active.size, k)
        empty = (counts == 0).any(axis=1)
        # out of steps, or converged: this assignment is the restart's result
        final = ((new_labels == labels[active]).all(axis=1) & ~empty) | (step == max_iter)
        for j in np.flatnonzero(final):
            labels[active[j]] = new_labels[j]
            inertia[active[j]] = dist[rows, j, new_labels[j]].sum()
        for j in np.flatnonzero(empty & ~final):
            # deterministic repair: relocate to the currently worst-fit points,
            # farthest first and, among equal distances, lowest index first
            farthest = np.argsort(-dist[rows, j, new_labels[j]], kind="stable")
            clusters = np.flatnonzero(counts[j] == 0)
            centers[active[j], clusters] = pts[farthest[: clusters.size]]
        moved = ~(empty | final)
        if moved.any():
            labels[active[moved]] = new_labels[moved]
            centers[active[moved]] = _centre_means(pts, new_labels[moved], counts[moved])
        active = active[~final]
        if not active.size:
            break
    return labels, inertia


def _best_kmeans(
    representation: np.ndarray,
    k: int,
    restarts: int,
    seed: int,
    max_iter: int = 300,
    threads: int = 1,
) -> tuple[np.ndarray, float]:
    """The labels and inertia of the best of `restarts` seeded k-means runs
    (the first one on a tie). The restarts are split into contiguous parts,
    one per thread (dataset.thread_map), each run in lockstep; a restart's
    result does not depend on the others in its part."""
    pts = np.ascontiguousarray(representation.T, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise ValueError("representation contains non-finite values")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    children = np.random.SeedSequence(seed).spawn(restarts)
    parts = np.array_split(np.arange(restarts), min(threads, restarts))
    lloyd = partial(_lloyd, pts, k, max_iter=max_iter)
    with thread_map(len(parts)) as each:
        runs = list(each(lloyd, [children[p[0] : p[-1] + 1] for p in parts]))
    labels = np.concatenate([part for part, _ in runs])
    inertia = np.concatenate([part for _, part in runs])
    best = int(np.argmin(inertia))  # the first restart with the smallest inertia
    return labels[best], float(inertia[best])


def evaluate_clustering(
    representation: np.ndarray,
    true_labels,
    k: int,
    restarts: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> ClusteringResult:
    """k-means on the representation columns plus acc/nmi/purity scores.

    The labels are the best of `restarts` seeded k-means++ runs by inertia
    (the first one on a tie); empty clusters are re-seeded from the points
    farthest from their centroids. The restarts run on up to `threads`
    threads, with the labels they give on one.
    """
    t = np.asarray(true_labels, dtype=np.int64)
    labels, _ = _best_kmeans(representation, k, restarts, seed, threads=threads)
    return ClusteringResult(
        predicted=labels,
        acc=accuracy(t, labels),
        nmi=nmi(t, labels),
        purity=purity(t, labels),
    )
