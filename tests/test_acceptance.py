"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The Handwritten reproduction is optional and skips itself unless the
dataset files are present (see IMVC_HANDWRITTEN_DIR below).
"""

import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from imvc import SolverConfig, load_dataset, normalize_views, save_dataset
from imvc.cli import main as cli_main
from imvc.dataset import MaskSpec, apply_mask
from imvc.graph import FusedGraph, build_fused_graphs, gaussian_knn_graph
from imvc.metrics import evaluate_clustering
from imvc.solver import (
    _reconstruction_cost,
    objective,
    update_weights,
)

from synthetic import (
    identity_graph,
    lone_basis,
    lone_codes,
    lone_consensus,
    lone_fit,
    masked_problem,
    multiview_blobs,
    multiview_moons,
    random_problem,
    random_state,
)
from test_metrics import counter_nmi, counter_purity, exhaustive_accuracy
from test_solver import consensus_term, grid_prox

HANDWRITTEN_DIR = Path(os.environ.get("IMVC_HANDWRITTEN_DIR", "data/handwritten"))


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criteria 1+4


@pytest.fixture(scope="module")
def monotone_runs():
    """20 seeded random problems shared by criteria 1 and 4."""
    start = time.perf_counter()
    combos = list(itertools.product((2, 3), (30, 100), (2, 5)))
    runs = []
    for seed in range(20):
        l, n, c = combos[seed % len(combos)]
        ds, graphs = random_problem(
            seed, l=l, n=n, c=c, dims=tuple(c + 3 for _ in range(l)), rate=0.3, k=4
        )
        diag = {"ortho": [], "simplex": [], "alpha_min": []}

        def check(index, it, bases, codes, consensus, weights, diag=diag):
            diag["ortho"].append(
                max(
                    float(np.max(np.abs(u.T @ u - np.eye(u.shape[1]))))
                    for u in bases
                )
            )
            diag["simplex"].append(abs(float(weights.sum()) - 1.0))
            diag["alpha_min"].append(float(weights.min()))

        cfg = SolverConfig(
            lam=1.0, beta=0.01, r=3.0, n_components=c, seed=seed, max_iter=80
        )
        state = lone_fit(ds, graphs, cfg, callback=check)
        runs.append((state, diag))
    return runs, time.perf_counter() - start


def test_criterion_01_monotone_convergence(monotone_runs):
    runs, fit_seconds = monotone_runs
    worst = 0.0
    for state, _ in runs:
        tr = state.objective_trace
        ratio = np.max(tr[1:] / (tr[:-1] * (1 + 1e-9)))
        worst = max(worst, float(ratio))
        assert np.all(tr[1:] <= tr[:-1] * (1 + 1e-9))
    report(
        1,
        "monotone objective on 20 random problems",
        worst <= 1.0 and fit_seconds <= 30.0,
        f"worst step ratio {worst:.12f}, {fit_seconds:.1f}s for all runs",
    )


def test_criterion_04_constraint_invariants(monotone_runs):
    runs, _ = monotone_runs
    ortho = max(max(d["ortho"]) for _, d in runs)
    simplex = max(max(d["simplex"]) for _, d in runs)
    alpha_min = min(min(d["alpha_min"]) for _, d in runs)
    ok = ortho <= 1e-8 and simplex <= 1e-12 and alpha_min >= 0.0
    report(
        4,
        "orthonormal bases and simplex weights every iteration",
        ok,
        f"max ortho dev {ortho:.2e}, max simplex dev {simplex:.2e}, min weight {alpha_min:.2e}",
    )


# ----------------------------------------------------------------- criterion 2


def test_criterion_02_update_rule_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(123)

    # basis update: achieved trace equals the singular value sum
    basis_dev = 0.0
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(3, 9)), 12))
        codes = rng.normal(size=(3, 12))
        target = x @ codes.T
        u = lone_basis(x, codes)
        sigma_sum = np.linalg.svd(target, compute_uv=False).sum()
        basis_dev = max(basis_dev, abs(float(np.trace(u.T @ target)) - float(sigma_sum)))
    assert basis_dev <= 1e-8

    # codes update: 100 scalar problems against a 1e-4 grid prox
    ids1 = np.array([0])
    eye1 = identity_graph(1)
    codes_dev = 0.0
    for _ in range(100):
        h = float(rng.uniform(1.05, 4.0))
        b = float(rng.uniform(-5.0, 5.0))
        beta = float(rng.uniform(0.0, 4.0))
        p = lone_codes(
            np.array([[b]]), np.array([[1.0]]), np.array([[0.0]]),
            ids1, eye1, lam=h - 1.0, beta=beta,
        )
        codes_dev = max(codes_dev, abs(float(p[0, 0]) - grid_prox(b / h, beta / (2 * h))))
    assert codes_dev <= 1e-4

    # consensus update: finite-difference gradient vanishes
    grad_dev = 0.0
    for seed in range(20):
        ds, graphs = random_problem(seed + 300, l=2, n=5, c=2, k=2)
        codes = [rng.normal(size=(2, v.n_available)) for v in ds.views]
        weights = np.array([0.4, 0.6])
        q = lone_consensus(codes, graphs, ds.availability, ds.n, weights, r=2.5)
        h = 1e-5
        for i in range(q.shape[0]):
            for j in range(q.shape[1]):
                qp, qm = q.copy(), q.copy()
                qp[i, j] += h
                qm[i, j] -= h
                grad = (
                    consensus_term(qp, codes, graphs, ds.availability, weights, 2.5)
                    - consensus_term(qm, codes, graphs, ds.availability, weights, 2.5)
                ) / (2 * h)
                grad_dev = max(grad_dev, abs(grad))
    assert grad_dev <= 1e-6

    # weight update: 50 cases against simplex grid search
    weight_dev = 0.0
    line = np.linspace(0.0, 1.0, 2001)
    for case in range(50):
        r = float(rng.uniform(1.5, 8.0))
        if case < 40:
            e = rng.uniform(0.05, 5.0, size=2)
            w = update_weights(e, r)
            vals = line**r * e[0] + (1 - line) ** r * e[1]
            weight_dev = max(weight_dev, abs(float(w[0]) - line[np.argmin(vals)]))
        else:
            e = rng.uniform(0.05, 5.0, size=3)
            w = update_weights(e, r)
            a1, a2 = np.meshgrid(line, line, indexing="ij")
            a3 = 1.0 - a1 - a2
            feasible = a3 >= 0
            vals = np.where(
                feasible, a1**r * e[0] + a2**r * e[1] + np.abs(a3) ** r * e[2], np.inf
            )
            best = np.unravel_index(np.argmin(vals), vals.shape)
            weight_dev = max(
                weight_dev,
                abs(float(w[0]) - a1[best]),
                abs(float(w[1]) - a2[best]),
            )
    assert weight_dev <= 1e-3

    elapsed = time.perf_counter() - start
    report(
        2,
        "closed-form updates match independent oracles",
        elapsed <= 60.0,
        f"basis {basis_dev:.1e}, codes {codes_dev:.1e}, consensus grad {grad_dev:.1e}, "
        f"weights {weight_dev:.1e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- criterion 3


def model6_objective(ds, state, lam, beta, r):
    """The no-graph model's cost: reconstruction + l1 + consensus tie.

    The reconstruction term is the library's own expansion (checked against
    the residual form in test_reference.py), so the bitwise comparison
    isolates what this criterion is about: the gamma=0 graph term.
    """
    total = 0.0
    for view, ids, u, p, a in zip(
        ds.views, ds.availability, state.bases, state.codes, state.weights
    ):
        x = view.data
        gathered = state.consensus[:, ids]
        total += a**r * (
            _reconstruction_cost(np.einsum("ij,ij->", x, x), x.T @ u, u, p)
            + beta * np.abs(p).sum()
            + lam * float(np.sum((p - gathered) ** 2))
        )
    return total


def test_criterion_03_degradation_identity():
    mismatches = 0
    for seed in range(10):
        ds, _ = random_problem(seed + 500, l=2, n=7, c=2, k=2)
        graphs = tuple(
            FusedGraph(
                view_id=v.view_id,
                w=0.0 * gaussian_knn_graph(v, k=2)[0] + sp.eye_array(v.n_available),
            )
            for v in ds.views
        )
        state = random_state(ds, 2, seed=seed)
        cfg = SolverConfig(lam=1.3, beta=0.4, r=2.0, n_components=2)
        got = objective(ds, graphs, state, cfg)
        want = model6_objective(ds, state, lam=1.3, beta=0.4, r=2.0)
        if got != want:
            mismatches += 1
    report(
        3,
        "gamma=0 objective equals the no-graph model bitwise",
        mismatches == 0,
        f"{10 - mismatches}/10 states identical",
    )


# ----------------------------------------------------------------- criterion 5


def test_criterion_05_synthetic_recovery():
    start = time.perf_counter()
    full = multiview_blobs(n=300, n_clusters=3, dims=(6, 8, 10), noise=0.5, seed=42)
    accs, nmis = [], []
    for mask_seed in range(5):
        masked, graphs = masked_problem(
            full, rate=0.3, mask_seed=100 + mask_seed, k=5, gamma=1.0
        )
        cfg = SolverConfig(
            lam=1.0, beta=0.001, r=3.0, n_components=3, seed=mask_seed
        )
        state = lone_fit(masked, graphs, cfg)
        scores = evaluate_clustering(
            state.consensus, full.labels, k=3, restarts=20, seed=mask_seed
        )
        accs.append(scores.acc)
        nmis.append(scores.nmi)
    elapsed = time.perf_counter() - start
    acc, nm = float(np.mean(accs)), float(np.mean(nmis))
    report(
        5,
        "blob recovery at 30% missing",
        acc >= 0.95 and nm >= 0.90 and elapsed <= 60.0,
        f"mean ACC {acc:.4f}, mean NMI {nm:.4f}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------- criterion 6


def test_criterion_06_graph_ablation_direction():
    full = multiview_moons(n=300, dims=(4, 5, 6), noise=0.06, seed=7)

    def mean_acc(gamma):
        accs = []
        for mask_seed in range(5):
            masked, graphs = masked_problem(
                full, rate=0.3, mask_seed=200 + mask_seed, k=5, gamma=gamma
            )
            cfg = SolverConfig(
                lam=10.0, beta=0.001, r=3.0, n_components=2, seed=mask_seed,
                max_iter=150,
            )
            state = lone_fit(masked, graphs, cfg)
            scores = evaluate_clustering(
                state.consensus, full.labels, k=2, restarts=20, seed=mask_seed
            )
            accs.append(scores.acc)
        return float(np.mean(accs))

    with_graph = mean_acc(1.0)
    without_graph = mean_acc(0.0)
    gap = with_graph - without_graph
    report(
        6,
        "graph ablation costs at least 5 ACC points on moons",
        gap >= 0.05,
        f"full {with_graph:.4f} vs no-graph {without_graph:.4f}, gap {100 * gap:.1f} pts",
    )


# ----------------------------------------------------------------- criterion 7


def _handwritten_paths():
    views = sorted(HANDWRITTEN_DIR.glob("view_*.csv"))
    labels = HANDWRITTEN_DIR / "labels.csv"
    if len(views) == 5 and labels.exists():
        return views, labels
    return None


@pytest.mark.skipif(
    _handwritten_paths() is None,
    reason="Handwritten dataset not provided (set IMVC_HANDWRITTEN_DIR to a "
    "directory with view_0.csv..view_4.csv and labels.csv)",
)
def test_criterion_07_handwritten_reproduction():
    start = time.perf_counter()
    views, labels = _handwritten_paths()
    ds = load_dataset(views, label_path=labels)
    ds = normalize_views(ds, "zscore-row")
    repeats = 3

    def mean_acc(lam, beta, r, k, n_masks):
        accs = []
        for mask_seed in range(n_masks):
            masked = apply_mask(
                ds, MaskSpec("random-missing", 0.3, seed=900 + mask_seed)
            )
            graphs = build_fused_graphs(masked, k=k, gamma=1.0)
            cfg = SolverConfig(
                lam=lam, beta=beta, r=r, n_components=10, seed=mask_seed, max_iter=60
            )
            state = lone_fit(masked, graphs, cfg)
            scores = evaluate_clustering(
                state.consensus, ds.labels, k=10, restarts=10, seed=mask_seed
            )
            accs.append(scores.acc)
        return float(np.mean(accs))

    # staged search inside the candidate sets: coarse scan on one mask,
    # then the leaders on the full repeats
    coarse = []
    for lam in (0.001, 0.1, 1.0, 10.0):
        for beta in (1e-5, 1e-3, 0.1):
            coarse.append(((lam, beta, 5.0, 5), mean_acc(lam, beta, 5.0, 5, 1)))
    coarse.sort(key=lambda item: -item[1])
    best_acc, best_point = 0.0, None
    for (lam, beta, r, k), _ in coarse[:2]:
        for k_try in (3, 5, 9):
            acc = mean_acc(lam, beta, r, k_try, repeats)
            if acc > best_acc:
                best_acc, best_point = acc, (lam, beta, r, k_try)
    elapsed = time.perf_counter() - start
    report(
        7,
        "Handwritten 30% missing grid search",
        best_acc >= 0.886 and elapsed <= 1800.0,
        f"best mean ACC {best_acc:.4f} at {best_point}, {elapsed:.0f}s",
    )


# ----------------------------------------------------------------- criterion 8


def _per_iter_ratio(small, big):
    """Time per iteration of the big (n, dims) problem over that of the small
    one. Each gets one untimed warm-up fit, then the best of 15 timed fits;
    the two take turns, so both sample the same stretches of a host whose
    speed drifts, and 15 turns span enough of them that both find a quiet
    one."""
    problems = [
        random_problem(3, l=2, n=n, c=3, dims=dims, rate=0.3, k=5) for n, dims in (small, big)
    ]
    cfg = SolverConfig(
        lam=1.0, beta=0.01, r=3.0, n_components=3, seed=0, max_iter=20, tol=0.0
    )
    for masked, graphs in problems:
        lone_fit(masked, graphs, cfg)
    best = [np.inf, np.inf]
    for _ in range(15):
        for i, (masked, graphs) in enumerate(problems):
            t0 = time.perf_counter()
            state = lone_fit(masked, graphs, cfg)
            best[i] = min(best[i], (time.perf_counter() - t0) / state.n_iterations)
    return best[1] / best[0]


def test_criterion_08_complexity_scaling():
    ratio = _per_iter_ratio((100, (1500, 1500)), (100, (3000, 3000)))
    report(
        8,
        "per-iteration time scales linearly in total feature dim",
        1.3 <= ratio <= 3.0,
        f"doubling features: x{ratio:.2f} per iteration",
    )


def test_criterion_08_scaling_in_samples():
    # the kNN graphs keep about k nonzeros per row, so an iteration costs
    # O(n) at fixed k and feature dimension, not O(n^2)
    ratio = _per_iter_ratio((2000, (100, 100)), (4000, (100, 100)))
    report(
        8,
        "per-iteration time scales linearly in the sample count",
        1.3 <= ratio <= 3.0,
        f"doubling samples: x{ratio:.2f} per iteration",
    )


# ----------------------------------------------------------------- criterion 9


def test_criterion_09_metric_correctness():
    from imvc import accuracy, nmi, purity

    rng = np.random.default_rng(77)
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        t = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        exact &= accuracy(t, p) == exhaustive_accuracy(t, p)
        exact &= nmi(t.tolist(), p.tolist()) == counter_nmi(t.tolist(), p.tolist())
        exact &= purity(t.tolist(), p.tolist()) == counter_purity(t.tolist(), p.tolist())
    report(9, "metrics equal brute-force contingency computations", bool(exact), "200 label pairs")


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    full = multiview_blobs(n=30, n_clusters=3, dims=(5, 6), noise=0.4, seed=9)
    paths = save_dataset(full, tmp_path / "data")
    config = {
        "dataset": {"views": paths["views"], "labels": paths["labels"]},
        "clusters": 3,
        "mask": {"protocol": "random-missing", "rates": [0.3], "repeats": 2},
        "solver": {"lam": [1.0], "beta": [0.001], "r": [3.0], "k": [5], "max_iter": 50},
        "metrics": {"restarts": 5},
        "master_seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r2")]) == 0
    same = (tmp_path / "r1" / "trials.csv").read_bytes() == (
        tmp_path / "r2" / "trials.csv"
    ).read_bytes()
    report(10, "run twice, byte-identical trials.csv", same)
