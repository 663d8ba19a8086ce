import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import imvc.metrics
from imvc import SolverConfig, accuracy, evaluate_clustering, fit, nmi, purity
from imvc.metrics import _best_kmeans

import reference
from synthetic import masked_problem, multiview_blobs
from test_certificates import HANDWRITTEN_DIMS
from test_graph_properties import examples


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


@st.composite
def label_pairs(draw):
    """Class and cluster labels with up to 12 values each, square or
    rectangular tables, and label values below the largest left unused."""
    n = draw(st.integers(1, 60))
    classes, clusters = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    t = draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(0, clusters - 1), min_size=n, max_size=n))
    return np.array(t), np.array(p)


@examples(300)
@given(label_pairs())
def test_accuracy_is_the_optimal_assignments_value(labels):
    t, p = labels
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    assert accuracy(t, p) == int(table[rows, cols].sum()) / t.size


def _tables(rng):
    """Count tables up to 40 x 40, each with the name of its kind: square and
    rectangular, with all-zero rows and columns, of one row or one column,
    and with many tied counts."""
    for _ in range(40):
        rows, cols = (int(x) for x in rng.integers(1, 41, size=2))
        yield "square", rng.integers(0, 30, size=(rows, rows))
        yield "rectangular", rng.integers(0, 30, size=(rows, cols))
        table = rng.integers(0, 30, size=(rows, cols))
        table[rng.random(rows) < 0.3] = 0
        table[:, rng.random(cols) < 0.3] = 0
        yield "zero rows and columns", table
        yield "one row", rng.integers(0, 30, size=(1, cols))
        yield "one column", rng.integers(0, 30, size=(rows, 1))
        yield "tied counts", rng.integers(0, 2, size=(rows, cols)) * 5
        # a clustering's table: a large count on a shuffled diagonal
        table = rng.integers(0, 4, size=(rows, cols))
        table[np.arange(min(rows, cols)), rng.permutation(cols)[: min(rows, cols)]] += 50
        yield "near-diagonal", table


def test_accuracy_is_linear_sum_assignments_optimum_on_tables_up_to_40_by_40():
    for kind, table in _tables(np.random.default_rng(37)):
        table = table.astype(np.int64)
        table[-1, -1] += 1  # a sample in the last class and cluster fixes the shape
        t, p = (np.repeat(axis, table.ravel()) for axis in np.indices(table.shape).reshape(2, -1))
        rows, cols = linear_sum_assignment(table, maximize=True)
        best = int(table[rows, cols].sum())
        assert imvc.metrics._assignment_value(table) == best, (kind, table.shape)
        assert accuracy(t, p) == best / t.size, (kind, table.shape)


# a run and a trace of a tiny 2-view dataset, each main's output discarded
RUN_AND_TRACE = """
import contextlib, io, json
from pathlib import Path
import numpy as np
work = Path(sys.argv[1])
labels = np.arange(30) % 3
rng = np.random.default_rng(0)
views = tuple(
    imvc.ViewMatrix(view_id=v, data=labels + 0.3 * rng.normal(size=(4, 30))) for v in range(2)
)
full = imvc.MultiViewDataset(views=views, n=30, availability=(np.arange(30),) * 2, labels=labels)
paths = imvc.save_dataset(full, work / "data")
config = {
    "dataset": {"views": paths["views"], "labels": paths["labels"]},
    "clusters": 3,
    "mask": {"protocol": "random-missing", "rates": [0.3], "repeats": 1},
    "solver": {"lam": [1.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 20},
    "metrics": {"restarts": 4},
    "output": str(work / "out"),
}
(work / "config.json").write_text(json.dumps(config))
for command in ("run", "trace"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert imvc.cli.main([command, "--config", str(work / "config.json")]) == 0
"""


@pytest.mark.parametrize("then", ["", RUN_AND_TRACE], ids=["import", "run-and-trace"])
def test_importing_imvc_leaves_scipy_graph_optimization_and_spatial_code_out(then, tmp_path):
    # accuracy's map comes from metrics' own Hungarian method and k-means'
    # assignment from its own screen: no imvc module pulls in
    # scipy.sparse.csgraph, the scipy.sparse.linalg that it loads,
    # scipy.optimize, which only this test file imports, or scipy.spatial,
    # with the scipy.linalg and scipy.special that it loads; nor does a run
    # or a trace, so that no lazy import brings them back
    unwanted = (
        "scipy.sparse.csgraph",
        "scipy.sparse.linalg",
        "scipy.optimize",
        "scipy.spatial",
        "scipy.linalg",
        "scipy.special",
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, imvc, imvc.cli\n{then}\n"
            f"print([m for m in {unwanted} if m in sys.modules])",
            str(tmp_path),
        ],
        env={**os.environ, "PYTHONPATH": str(Path(imvc.metrics.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="equally long"):
        accuracy([0, 1], [0, 1, 1])


@pytest.mark.parametrize("score", [accuracy, nmi, purity])
@pytest.mark.parametrize(
    "true, predicted, message",
    [
        ([], [], "label vectors must be non-empty"),
        ([0, -1], [0, 1], "labels must be non-negative integers"),
        ([0, 1], [0, -1], "labels must be non-negative integers"),
    ],
    ids=["empty", "negative-true", "negative-predicted"],
)
def test_scores_reject_empty_and_negative_labels(score, true, predicted, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        score(true, predicted)


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


def test_kmeans_rejects_a_representation_whose_distances_overflow():
    # at 1e155 the squared distances pass the largest float64; the check
    # fires before any numpy warning (which pytest turns into an error),
    # while 1e150 still runs
    rep = np.random.default_rng(12).normal(size=(12, 500))
    with pytest.raises(ValueError, match="^representation's squared distances overflow float64"):
        _best_kmeans(rep * 1e155, k=3, restarts=2, seed=0)
    labels, inertia = _best_kmeans(rep * 1e150, k=3, restarts=2, seed=0)
    assert labels.shape == (500,) and np.isfinite(inertia)


@pytest.mark.parametrize(
    "n, clusters, sweeps", [(2000, 10, 30), (400, 5, 40)], ids=["n2000", "n400"]
)
def test_assignment_screen_decides_every_pair_of_a_fitted_consensus(
    monkeypatch, n, clusters, sweeps
):
    # the benchmark's k-means input, the consensus of a fit on
    # Handwritten-shaped data with 30% of the views missing: the screen
    # alone labels every (restart, point) pair of every Lloyd step, so none
    # is recomputed exactly
    full = multiview_blobs(
        n=n, n_clusters=clusters, dims=HANDWRITTEN_DIMS, noise=2.4, separation=1.0, seed=3
    )
    ds, graphs = masked_problem(full)
    cfg = SolverConfig(lam=0.1, beta=1e-3, r=5.0, n_components=clusters, max_iter=sweeps, tol=0.0)
    (state,) = fit(ds, graphs, [cfg])
    steps, unsure = 0, 0
    real = imvc.metrics._least

    def least(screen, slack):
        nonlocal steps, unsure
        labels, undecided = real(screen, slack)
        steps += 1
        unsure += int(undecided.sum())
        return labels, undecided

    monkeypatch.setattr(imvc.metrics, "_least", least)
    _best_kmeans(state.consensus, k=clusters, restarts=20, seed=0)
    assert steps > 1
    assert unsure == 0


def test_kmeans_rechecks_an_unsure_point_against_its_near_centres_alone(monkeypatch):
    # two narrow clouds 1e9 apart: the screen's slack grows with a point's
    # squared distance from the origin between them, far beyond the gaps
    # between the centres of one cloud, so it leaves points in doubt among
    # those; only they reach the exact recheck, not all k, and the labels
    # and inertia are the reference's
    pts = np.random.default_rng(0).normal(size=(10, 2000))
    pts[:, 1000:] += 1e9
    k, unsure, pairs, assigning = 10, 0, 0, False
    least, assign, sq_distances = (
        imvc.metrics._least, imvc.metrics._assign, imvc.metrics._sq_distances
    )

    def counted_least(screen, slack):
        nonlocal unsure
        labels, undecided = least(screen, slack)
        unsure += int(undecided.sum())
        return labels, undecided

    def flagged_assign(points, centres):
        nonlocal assigning
        assigning = True
        try:
            return assign(points, centres)
        finally:
            assigning = False

    def counted_sq_distances(a, rows, b, cols):
        nonlocal pairs
        pairs += rows.size if assigning else 0
        return sq_distances(a, rows, b, cols)

    monkeypatch.setattr(imvc.metrics, "_least", counted_least)
    monkeypatch.setattr(imvc.metrics, "_assign", flagged_assign)
    monkeypatch.setattr(imvc.metrics, "_sq_distances", counted_sq_distances)
    problem = dict(representation=pts, k=k, restarts=20, seed=0, max_iter=300)
    labels, inertia = _best_kmeans(**problem)
    want_labels, want_inertia = reference.best_kmeans(**problem)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia
    assert unsure > 0
    assert pairs < 0.6 * k * unsure  # half of them here: the other cloud's centres go


def test_kmeans_rejects_a_representation_without_samples_or_features():
    for shape in [(3, 0), (0, 5)]:
        with pytest.raises(ValueError, match=re.escape(f"features and samples, got shape {shape}")):
            _best_kmeans(np.zeros(shape), k=1, restarts=2, seed=0)


@pytest.mark.parametrize(
    "cell, restarts, message",
    [
        (np.nan, 2, "representation contains non-finite values"),
        (np.inf, 2, "representation contains non-finite values"),
        (0.0, 0, "restarts must be at least 1"),
        (0.0, -3, "restarts must be at least 1"),
    ],
    ids=["nan", "inf", "no-restarts", "negative-restarts"],
)
def test_kmeans_rejects_a_non_finite_representation_and_no_restarts(cell, restarts, message):
    rep = np.random.default_rng(13).normal(size=(2, 12))
    rep[1, 5] = rep[1, 5] + cell
    with pytest.raises(ValueError, match=f"^{message}"):
        _best_kmeans(rep, k=2, restarts=restarts, seed=0)


@pytest.mark.parametrize(
    "key, value",
    [("k", 2.5), ("k", True), ("k", np.nan), ("restarts", 2.5), ("restarts", True),
     ("restarts", np.inf)],
    ids=["k-2.5", "k-True", "k-nan", "restarts-2.5", "restarts-True", "restarts-inf"],
)
def test_evaluate_clustering_names_a_count_that_is_not_an_integer(key, value):
    # 2.5 failed inside numpy ("'float' object cannot be interpreted as an
    # integer"), k=True as "an integer is required", and restarts=True ran
    # one restart
    rep = np.random.default_rng(14).normal(size=(2, 12))
    truth = np.arange(12) % 2
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
        evaluate_clustering(rep, truth, **{"k": 2, "restarts": 3, key: value})
    # integral floats are the integers they equal
    whole = evaluate_clustering(rep, truth, k=2.0, restarts=3.0)
    assert np.array_equal(whole.predicted, evaluate_clustering(rep, truth, k=2, restarts=3).predicted)


@pytest.mark.parametrize(
    "seed, message",
    [(2.5, "an integer"), (True, "an integer"), (-1, "non-negative")],
    ids=["2.5", "True", "-1"],
)
def test_evaluate_clustering_seed_is_a_non_negative_integer(seed, message):
    # 2.5 failed inside numpy's SeedSequence, -1 failed there without naming
    # the seed, and True ran as seed 1
    rep = np.random.default_rng(14).normal(size=(2, 12))
    truth = np.arange(12) % 2
    with pytest.raises(ValueError, match=f"^seed must be {message}, got {seed!r}$"):
        evaluate_clustering(rep, truth, k=2, restarts=3, seed=seed)
    whole = evaluate_clustering(rep, truth, k=2, restarts=3, seed=5.0)
    same = evaluate_clustering(rep, truth, k=2, restarts=3, seed=5)
    assert np.array_equal(whole.predicted, same.predicted)


def test_evaluate_clustering_checks_the_label_count_before_kmeans(monkeypatch):
    def best_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran on a label vector of the wrong length")

    monkeypatch.setattr(imvc.metrics, "_best_kmeans", best_kmeans)
    with pytest.raises(ValueError, match="one label per representation column"):
        evaluate_clustering(np.zeros((2, 5)), np.zeros(4, dtype=np.int64), k=2)


@pytest.mark.parametrize("distinct", [1, 3], ids=["identical", "three-distinct"])
def test_kmeans_stops_where_its_repair_leaves_the_centres_as_they_are(monkeypatch, distinct):
    # with fewer distinct points than k, some cluster stays empty: the repair
    # moves it onto the farthest point, which is already some centre, and the
    # next step repeats that one, so the restarts end at that fixed point
    # instead of running all of max_iter
    pts = np.random.default_rng(13).normal(size=(distinct, 10))[np.arange(2000) % distinct]
    steps = 0
    real = imvc.metrics._assign

    def assign(points, centers):
        nonlocal steps
        steps += 1
        return real(points, centers)

    monkeypatch.setattr(imvc.metrics, "_assign", assign)
    _best_kmeans(pts.T, k=10, restarts=20, seed=0, max_iter=300)
    assert steps <= 2


@pytest.mark.parametrize("distinct", [1, 2, 4])
def test_kmeans_fixed_point_gives_the_result_of_all_max_iter_steps(distinct):
    # the reference runs every one of the 300 steps
    rng = np.random.default_rng(distinct)
    pts = rng.integers(-2, 3, size=(distinct, 3))[rng.integers(0, distinct, size=200)]
    problem = dict(representation=pts.T.astype(float), k=6, restarts=5, seed=distinct, max_iter=300)
    want_labels, want_inertia = reference.best_kmeans(**problem)
    labels, inertia = _best_kmeans(**problem)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia


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
    real = imvc.metrics._assign

    def assign(points, centers):
        centres.append(centers.copy())
        return real(points, centers)

    monkeypatch.setattr(imvc.metrics, "_assign", assign)
    _best_kmeans(pts.T, k=3, restarts=1, seed=0, max_iter=5)
    assert np.array_equal(centres[0], np.zeros((1, 3, 2)))
    assert np.array_equal(centres[1], [[[0, 0], [3, 0], [0, 3]]])


def test_evaluate_clustering_on_separable_data():
    rep, truth = separable_clouds(seed=10)
    result = evaluate_clustering(rep, truth, k=2, restarts=6, seed=2)
    assert result.acc == 1.0
    assert result.nmi == 1.0
    assert result.purity == 1.0
    assert result.predicted.shape == truth.shape
