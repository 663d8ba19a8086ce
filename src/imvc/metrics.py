"""Cluster the consensus representation and score the result.

evaluate_clustering runs restarted Lloyd iterations with k-means++ seeding on
the columns of the representation and scores the best restart's labels. The
restarts run in lockstep and give the same labels and inertia, bit for bit,
as running them one at a time with scipy's cdist and argmin. Each Lloyd step
assigns the points of every running restart with one GEMM over the centred
points, proven within a slack of cdist's squared distances, and recomputes
exactly, in cdist's own order of summation (graph._sq_distances), only the
pairs the screen leaves undecided and the distances that the inertia and the
empty-cluster repair read. A restart ends when its labels stop changing, at
max_iter, or when its repair leaves its centres as they are, since every
later step would repeat that one. accuracy uses the optimal one-to-one
cluster-to-class assignment (the Kuhn-Munkres map): this module's own
Hungarian method finds its value on the class-by-cluster contingency table
in integer arithmetic. Scoring thus needs nothing of scipy but scipy.sparse.
nmi normalizes mutual information by the geometric mean of the two
entropies, and purity is the majority-class fraction per predicted cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .dataset import _count, _integer, _seed, thread_map
from .graph import _sq_distances


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


def _assignment_value(table: np.ndarray) -> int:
    """The largest sum of counts over a one-to-one pairing of the rows and
    columns of a non-negative integer table.

    The Hungarian method (Kuhn 1955) in its shortest augmenting path form
    minimizes the negated counts on the table padded with zeros to a square:
    a padded row or column pairs with zero weight, so the square's optimum is
    the table's. Row i joins the matching along the shortest path of reduced
    costs from it to a free column; the row and column potentials keep every
    reduced cost non-negative and every matched pair's at zero, so each
    partial matching is a cheapest one of its rows, and the full one is
    optimal. All arithmetic is on int64 counts and potentials, hence exact.
    """
    size = max(table.shape)
    # index 0 is a virtual column, where each new row's path starts
    cost = np.zeros((size + 1, size + 1), dtype=np.int64)
    cost[1 : table.shape[0] + 1, 1 : table.shape[1] + 1] = -table
    u = np.zeros(size + 1, dtype=np.int64)  # row potentials
    v = np.zeros(size + 1, dtype=np.int64)  # column potentials
    row_of = np.zeros(size + 1, dtype=np.int64)  # the row matched to each column, 0 for none
    way = np.zeros(size + 1, dtype=np.int64)  # each column's predecessor on its path
    for i in range(1, size + 1):
        row_of[0] = i
        col = 0
        slack = np.full(size + 1, np.iinfo(np.int64).max)
        seen = np.zeros(size + 1, dtype=bool)
        while row_of[col]:
            seen[col] = True
            row = row_of[col]
            free = ~seen
            reduced = cost[row] - u[row] - v
            closer = free & (reduced < slack)
            slack[closer] = reduced[closer]
            way[closer] = col
            nxt = np.flatnonzero(free)[np.argmin(slack[free])]
            delta = slack[nxt]
            u[row_of[seen]] += delta
            v[seen] -= delta
            slack[free] -= delta
            col = nxt
        while col:  # flip the matching along the path back to the virtual column
            prev = way[col]
            row_of[col] = row_of[prev]
            col = prev
    return int(-cost[row_of[1:], np.arange(1, size + 1)].sum())


def accuracy(true_labels, predicted) -> float:
    """Fraction correct under the best one-to-one cluster-to-class map.

    A one-to-one map of clusters to classes labels a sample correctly when
    its cluster maps to its class, so the count it gets right is the sum of
    the contingency counts of its (class, cluster) pairs. The best map's
    count is therefore the optimal assignment's value of the table, which
    _assignment_value computes exactly; accuracy divides it by the sample
    count.
    """
    t, p = _check_labels(true_labels, predicted)
    return _assignment_value(_contingency(t, p)) / t.size


def _entropy(counts, n: int) -> float:
    """The entropy of n labels in clusters of these sizes, summed serially,
    one cluster at a time, so the arithmetic is reproducible term by term."""
    h = 0.0
    for a in counts:
        if a > 0:
            h -= (a / n) * math.log(a / n)
    return h


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
    h_t = _entropy(row, n)
    h_p = _entropy(col, n)
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


class _Points(NamedTuple):
    """The (n, c) points of one k-means run and what every assignment step
    reads of them (_centre_points)."""

    raw: np.ndarray
    origin: np.ndarray  # a point inside their bounding box
    factor: np.ndarray  # (c + 1, n): -2 (raw - origin), transposed, over a row of ones
    slack: np.ndarray  # each point's own part of the screen's slack
    kappa: float  # the slack per unit of a centre's squared norm


def _centre_points(pts: np.ndarray) -> _Points:
    """The points centred on a point inside their bounding box, as the
    assignment screen of _assign reads them, with the slack that the screen
    is proven within.

    With u = 2^-53 and gamma_j = j u / (1 - j u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), let y_i and e_l be a point
    and a centre minus the origin, rounded, n_i = ||y_i||, N_l = ||e_l||,
    and E_il cdist's squared distance of the two. The screen holds s_il, a
    dot product of c + 1 terms, -2 e_lf y_if and e_l's computed squared norm
    times 1:
    - the norm is within gamma_c N_l^2 of N_l^2, and the dot product within
      gamma_(c+1) (2 n_i N_l + (1 + gamma_c) N_l^2) of its exact value in
      any order of summation, so s_il is within gamma_(3c+2) (n_i^2 +
      N_l^2) of ||y_i - e_l||^2 - n_i^2;
    - centring moves each coordinate by u of itself, so ||y_i - e_l|| is
      within (u / (1 - u)) (n_i + N_l) of the exact distance, and its square
      within gamma_4 (n_i^2 + N_l^2) of the exact squared distance;
    - cdist's rounding puts E_il within gamma_(c+2) of the exact squared
      distance, itself at most 2 (1 + gamma_1)^2 (n_i^2 + N_l^2).
    Summed (gamma_a + gamma_b + gamma_a gamma_b <= gamma_(a+b)), |s_il +
    n_i^2 - E_il| <= kappa0 (n_i^2 + N_l^2) + 3c 2^-1074, with kappa0 =
    gamma_(5c+12) and 2^-1074 for each product or square that underflows (a
    sum or difference that does is exact). If l0 holds the point's least
    screened value and l* its least E, then s_il* <= E_il* - n_i^2 + err <=
    E_il0 - n_i^2 + err <= s_il0 + 2 kappa0 (n_i^2 + M) + 6c 2^-1074, where
    M is the restart's largest N_l^2: l* is within that slack of the least.
    The slack takes kappa = gamma_(5c+14) for kappa0 and tau = (3c + 1)
    2^-1074: the two u and the one 2^-1074 to spare cover the rounding and
    the underflow of the norms, of the slack and of its sum with the least,
    which is at most 2 (n_i^2 + M) in size. The overflow check of
    _best_kmeans keeps every value finite.
    """
    n, c = pts.shape
    low = pts.min(axis=0)
    origin = low + (pts - low).mean(axis=0)  # no sum can overflow
    centred = pts - origin
    kappa = (5 * c + 14) * 2.0**-53 / (1 - (5 * c + 14) * 2.0**-53)
    tau = math.ldexp(3 * c + 1, -1074)
    slack = 2.0 * kappa * np.einsum("ij,ij->i", centred, centred) + 2.0 * tau
    factor = np.ones((c + 1, n))
    np.multiply(centred.T, -2.0, out=factor[:c])
    return _Points(pts, origin, factor, slack, kappa)


def _least(screen: np.ndarray, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each (restart, point) column of a (k, restarts, n) screen: the
    index of the one value within slack of the column's least, and whether
    the column has other than one such value."""
    k = screen.shape[0]
    near = screen <= screen.min(axis=0) + slack
    count = np.add.reduce(near, axis=0, dtype=np.min_scalar_type(k))
    # where count is 1 this sum is that one value's index
    index = np.arange(k, dtype=np.min_scalar_type(k - 1))[:, None, None]
    label = np.add.reduce(near * index, axis=0, dtype=index.dtype)
    return label.astype(np.int64), count != 1


def _assign(points: _Points, centres: np.ndarray) -> np.ndarray:
    """(restarts, n) labels: each point's nearest of its restart's k centres
    in centres (restarts, k, c), the first among equal distances, as argmin
    over cdist's squared distances gives.

    One GEMM screens all pairs: with y_i a point and e_l a centre, both
    centred, s_il = ||e_l||^2 - 2 e_l . y_i is ||y_i - e_l||^2 up to the
    point's own constant ||y_i||^2. It is laid out (k, restarts, n), so
    each reduction over a restart's centres runs down the leading axis. A
    pair's label is its one centre within the slack of _centre_points of
    its least screened value. A pair with more than one (a near-tie or a
    duplicate centre) is recomputed exactly against those centres, which
    hold every exact least by _centre_points' bound, and one with none (a
    non-finite value) against all k centres of its restart
    (graph._sq_distances, the points against the centres laid out
    c x (restarts k)); it takes the first least.
    """
    m, k, c = centres.shape
    # each centre minus the origin, then its squared norm, laid out (k, m)
    rows = np.empty((k, m, c + 1))
    np.subtract(centres.transpose(1, 0, 2), points.origin, out=rows[..., :c])
    np.einsum("...f,...f->...", rows[..., :c], rows[..., :c], out=rows[..., c])
    screen = (rows.reshape(k * m, c + 1) @ points.factor).reshape(k, m, -1)
    slack = points.slack + 2.0 * points.kappa * rows[..., c].max(axis=0)[:, None]
    labels, unsure = _least(screen, slack)
    if unsure.any():
        restart, point = np.nonzero(unsure)
        # the (pairs, k) centres within the slack of each unsure pair's least,
        # as _least finds them, or all k where there is none
        values = screen.transpose(1, 2, 0)[unsure]
        near = values <= values.min(axis=1, keepdims=True) + slack[unsure, None]
        near[~near.any(axis=1)] = True
        pair, cluster = np.nonzero(near)
        exact = np.full(near.shape, np.inf)  # inf at the centres left out
        exact[near] = _sq_distances(
            points.raw.T, point[pair], centres.reshape(-1, c).T, restart[pair] * k + cluster
        )
        labels[unsure] = exact.argmin(axis=1)  # the first least
    return labels


def _lloyd(pts: np.ndarray, k: int, children, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) labels and the m inertias of the restarts that the m seed
    sequences `children` seed, run in lockstep. The points are centred once;
    each Lloyd step then assigns the points of every running restart at once
    (_assign), and the distances that the inertia and the empty-cluster
    repair read are cdist's, bit for bit (graph._sq_distances). A restart whose
    repair leaves its centres as they are ends at once, with the labels and
    inertia that step max_iter would give it."""
    m, (n, c) = len(children), pts.shape
    centers = np.stack(
        [_kmeans_pp_init(pts, k, np.random.default_rng(child)) for child in children]
    )
    points = _centre_points(pts)
    labels = np.full((m, n), -1)
    inertia = np.empty(m)
    active = np.arange(m)  # restarts whose Lloyd iterations still run
    rows = np.arange(n)
    for step in range(max_iter + 1):
        new_labels = _assign(points, centers[active])
        # each label's column in the running restarts' centres laid out
        # c x (restarts k), as _sq_distances reads them below
        bins = new_labels + (np.arange(active.size) * k)[:, None]
        counts = np.bincount(bins.ravel(), minlength=active.size * k).reshape(active.size, k)
        empty = (counts == 0).any(axis=1)
        # out of steps, or converged: this assignment is the restart's result
        final = ((new_labels == labels[active]).all(axis=1) & ~empty) | (step == max_iter)
        # each point's distance to its own centre, where a restart ends or
        # repairs an empty cluster
        scored = np.flatnonzero(final | empty)
        if scored.size:
            cost = _sq_distances(
                pts.T, np.tile(rows, scored.size), centers[active].reshape(-1, c).T,
                bins[scored].ravel(),
            ).reshape(scored.size, n)
            for j, own in zip(scored, cost):
                if not final[j]:
                    # deterministic repair: relocate to the currently
                    # worst-fit points, farthest first and, among equal
                    # distances, lowest index first
                    farthest = np.argsort(-own, kind="stable")
                    clusters = np.flatnonzero(counts[j] == 0)
                    seeds = pts[farthest[: clusters.size]]
                    # a repair that leaves the centres as they are is a fixed
                    # point: every later step would repeat this assignment and
                    # this repair up to max_iter, so this is the result
                    final[j] = np.array_equal(centers[active[j], clusters], seeds)
                    centers[active[j], clusters] = seeds
                if final[j]:
                    labels[active[j]] = new_labels[j]
                    inertia[active[j]] = own.sum()
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
    result does not depend on the others in its part.

    Raises ValueError, before any numpy warning, on a representation with
    no features or no samples, on a non-finite one, and on one whose squared
    distances could overflow: where n times the sum of its features' squared
    spans, which bounds any sum of n squared distances, passes a quarter of
    the largest float64."""
    pts = np.ascontiguousarray(representation.T, dtype=np.float64)
    if pts.size == 0:
        raise ValueError(
            f"representation must have features and samples, got shape {representation.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("representation contains non-finite values")
    n = pts.shape[0]
    with np.errstate(over="ignore"):
        spans = pts.max(axis=0) - pts.min(axis=0)
        span_sq = float(np.sum(spans * spans))  # >= every squared distance
    # n of them, as k-means++ and the inertia sum, stay finite, with room for
    # the assignment screen's own terms (_centre_points)
    if not n * span_sq <= np.finfo(np.float64).max / 4:
        raise ValueError(
            f"representation's squared distances overflow float64 (the widest "
            f"feature spans {spans.max():.3g} over {n} points); rescale it"
        )
    k = _integer("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    restarts = _count("restarts", restarts)
    seed = _seed("seed", seed)
    children = np.random.SeedSequence(seed).spawn(restarts)
    lloyd = partial(_lloyd, pts, k, max_iter=max_iter)
    with thread_map(threads) as each:  # which checks threads before the split
        parts = np.array_split(np.arange(restarts), min(threads, restarts))
        runs = each(lloyd, [children[p[0] : p[-1] + 1] for p in parts])
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
    if t.shape != representation.shape[1:]:
        raise ValueError(
            f"true_labels must hold one label per representation column, got shape "
            f"{t.shape} for a representation of shape {representation.shape}"
        )
    labels, _ = _best_kmeans(representation, k, restarts, seed, threads=threads)
    return ClusteringResult(
        predicted=labels,
        acc=accuracy(t, labels),
        nmi=nmi(t, labels),
        purity=purity(t, labels),
    )
