import itertools
import math
from collections import Counter

import numpy as np
import pytest

import imvc.metrics
from imvc import accuracy, evaluate_clustering, nmi, purity
from imvc.metrics import _best_kmeans


def exhaustive_accuracy(t, p):
    """Best one-to-one relabeling by brute force over all permutations."""
    t, p = np.asarray(t), np.asarray(p)
    d = int(max(t.max(), p.max())) + 1
    table = np.zeros((d, d), dtype=int)
    np.add.at(table, (t, p), 1)
    best = max(
        sum(table[perm[j], j] for j in range(d))
        for perm in itertools.permutations(range(d))
    )
    return best / t.size


def counter_nmi(t, p):
    """Contingency-table mutual information from raw counts."""
    n = len(t)
    joint = Counter(zip(t, p))
    rows = Counter(t)
    cols = Counter(p)
    h_t = 0.0
    for i in sorted(rows):
        h_t -= (rows[i] / n) * math.log(rows[i] / n)
    h_p = 0.0
    for j in sorted(cols):
        h_p -= (cols[j] / n) * math.log(cols[j] / n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    info = 0.0
    for i in sorted(rows):
        for j in sorted(cols):
            nij = joint.get((i, j), 0)
            if nij:
                info += (nij / n) * math.log(n * nij / (rows[i] * cols[j]))
    return min(max(info / math.sqrt(h_t * h_p), 0.0), 1.0)


def counter_purity(t, p):
    clusters = {}
    for ti, pi in zip(t, p):
        clusters.setdefault(pi, Counter())[ti] += 1
    return sum(max(c.values()) for c in clusters.values()) / len(t)


# ------------------------------------------------------------------ accuracy


def test_accuracy_permutation_invariant():
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_accuracy_half_right():
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_accuracy_identity():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=30)
    assert accuracy(labels, labels) == 1.0


def test_accuracy_matches_exhaustive_search():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        t = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        assert accuracy(t, p) == exhaustive_accuracy(t, p)


def test_accuracy_handles_unequal_cluster_counts():
    t = [0, 0, 1, 1, 2, 2]
    p = [0, 0, 0, 1, 1, 1]  # fewer predicted clusters than classes
    assert accuracy(t, p) == exhaustive_accuracy(t, p) == 4 / 6


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equally long"):
        accuracy([0, 1], [0, 1, 1])


# ----------------------------------------------------------------------- nmi


def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1, 2, 2], [2, 2, 0, 0, 1, 1]) == 1.0


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0


def test_nmi_merged_classes_match_contingency_oracle():
    t = [0, 0, 1, 1, 2, 2]
    p = [0, 0, 0, 0, 1, 1]  # first two classes merged
    assert nmi(t, p) == counter_nmi(t, p)


def test_nmi_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        t = rng.integers(0, 4, size=n).tolist()
        p = rng.integers(0, 4, size=n).tolist()
        assert nmi(t, p) == counter_nmi(t, p)


def test_nmi_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.integers(0, 3, size=15)
        p = rng.integers(0, 5, size=15)
        assert nmi(t, p) == pytest.approx(nmi(p, t), abs=1e-15)


def test_nmi_single_cluster_edge_cases():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0  # both trivial partitions agree
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0  # one side carries no information
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


# -------------------------------------------------------------------- purity


def test_purity_identity():
    labels = [0, 1, 2, 1, 0]
    assert purity(labels, labels) == 1.0


def test_purity_single_cluster_balanced():
    t = [0, 0, 1, 1, 2, 2]
    assert purity(t, [0] * 6) == pytest.approx(1 / 3)


def test_purity_majority_count_example():
    assert purity([0, 0, 1, 1], [0, 0, 0, 1]) == 0.75


def test_purity_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        t = rng.integers(0, 4, size=n).tolist()
        p = rng.integers(0, 4, size=n).tolist()
        assert purity(t, p) == counter_purity(t, p)


def test_accuracy_never_exceeds_purity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        t = rng.integers(0, 5, size=n)
        p = rng.integers(0, 5, size=n)
        assert accuracy(t, p) <= purity(t, p) + 1e-15


def test_scores_invariant_under_prediction_relabeling():
    rng = np.random.default_rng(6)
    t = rng.integers(0, 3, size=24)
    p = rng.integers(0, 3, size=24)
    perm = np.array([2, 0, 1])
    assert accuracy(t, p) == accuracy(t, perm[p])
    assert nmi(t, p) == pytest.approx(nmi(t, perm[p]), abs=1e-15)


# ------------------------------------------------------------------- k-means


def separable_clouds(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(20, 3)) * 0.2
    b = rng.normal(size=(25, 3)) * 0.2 + 10.0
    pts = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 25)
    return pts.T, labels  # dim x n, columns are samples


def test_kmeans_separates_two_clouds():
    rep, truth = separable_clouds()
    labels = evaluate_clustering(rep, truth, k=2, restarts=5, seed=0).predicted
    assert accuracy(truth, labels) == 1.0


def test_kmeans_identical_points_zero_inertia():
    rep = np.zeros((3, 10))
    labels, inertia = _best_kmeans(rep, k=1, restarts=3, seed=0, max_iter=50)
    assert inertia == 0.0
    assert np.all(labels == 0)


def test_kmeans_beats_random_assignments():
    rng = np.random.default_rng(7)
    rep = rng.normal(size=(4, 40))
    _, inertia = _best_kmeans(rep, k=3, restarts=5, seed=1, max_iter=100)
    pts = rep.T
    for _ in range(100):
        labels = rng.integers(0, 3, size=40)
        cost = 0.0
        for cluster in range(3):
            member = pts[labels == cluster]
            if member.size:
                cost += float(((member - member.mean(axis=0)) ** 2).sum())
        assert inertia <= cost + 1e-9


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(8)
    rep = rng.normal(size=(3, 30))
    a, inertia_a = _best_kmeans(rep, k=3, restarts=4, seed=11)
    b, inertia_b = _best_kmeans(rep, k=3, restarts=4, seed=11)
    assert np.array_equal(a, b) and inertia_a == inertia_b


def test_kmeans_invalid_k():
    rep, truth = np.zeros((2, 5)), np.zeros(5, dtype=np.int64)
    with pytest.raises(ValueError, match="k must satisfy"):
        evaluate_clustering(rep, truth, k=6)
    with pytest.raises(ValueError, match="k must satisfy"):
        evaluate_clustering(rep, truth, k=0)


def test_lloyd_inertia_non_increasing():
    # the inertia after t Lloyd steps of one restart, for growing t
    rng = np.random.default_rng(9)
    rep = rng.normal(size=(4, 60))
    inertias = [_best_kmeans(rep, k=4, restarts=1, seed=1, max_iter=t)[1] for t in range(12)]
    assert inertias[-1] < inertias[0]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_lloyd_handles_coincident_seeding():
    # identical points force coincident k-means++ centers and an empty cluster
    rep = np.zeros((2, 6))
    labels, inertia = _best_kmeans(rep, k=2, restarts=3, seed=0, max_iter=20)
    assert inertia == 0.0
    assert set(labels) <= {0, 1}


def test_kmeans_repair_takes_the_lowest_of_tied_farthest_points(monkeypatch):
    # three centres seeded at the origin leave clusters 1 and 2 empty; points
    # 1, 3, 4 and 6 tie as the farthest from it (squared distance 9), and the
    # repair moves the empty clusters to the first two of them, whatever the
    # sort code NumPy dispatches to
    pts = np.array([[0, 0.5], [3, 0], [0.5, 0], [0, 3], [-3, 0], [0, -0.5], [0, -3]])
    monkeypatch.setattr(
        imvc.metrics, "_kmeans_pp_init", lambda pts, k, rng: np.zeros((k, pts.shape[1]))
    )
    centres = []
    real = imvc.metrics.cdist

    def cdist(a, b, metric):
        centres.append(b.copy())
        return real(a, b, metric=metric)

    monkeypatch.setattr(imvc.metrics, "cdist", cdist)
    _best_kmeans(pts.T, k=3, restarts=1, seed=0, max_iter=5)
    assert np.array_equal(centres[0], np.zeros((3, 2)))
    assert np.array_equal(centres[1], [[0, 0], [3, 0], [0, 3]])


def test_evaluate_clustering_on_separable_data():
    rep, truth = separable_clouds(seed=10)
    result = evaluate_clustering(rep, truth, k=2, restarts=6, seed=2)
    assert result.acc == 1.0
    assert result.nmi == 1.0
    assert result.purity == 1.0
    assert result.predicted.shape == truth.shape
