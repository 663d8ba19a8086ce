"""The sparse graph build and solver terms against the dense references in
reference.py."""

import tracemalloc

import numpy as np
import pytest

import imvc.graph
import reference
from imvc import (
    SolverConfig,
    ViewMatrix,
    fit,
    gaussian_knn_graph,
    update_codes,
    update_consensus,
    view_costs,
)

from synthetic import random_problem, random_state


def random_view(n, m, seed):
    return ViewMatrix(view_id=0, data=np.random.default_rng(seed).normal(size=(m, n)))


def assert_graph_matches_reference(view, k, sigma=None):
    got = gaussian_knn_graph(view, k=k, sigma=sigma)
    s, want_sigma = reference.gaussian_knn_graph(view.data, k, sigma=sigma)
    assert got.sigma == want_sigma
    assert np.array_equal(got.s.toarray(), s)


# ------------------------------------------------------------------ kNN graph


def test_graph_within_one_block_matches_reference():
    view = random_view(60, 4, seed=0)
    assert 60 <= imvc.graph._BLOCK_BYTES // (8 * 60)  # a single block
    for k in (1, 5, 59):
        assert_graph_matches_reference(view, k)
    assert_graph_matches_reference(view, 3, sigma=0.7)


def test_graph_over_uneven_blocks_matches_reference(monkeypatch):
    # 7 rows per block: 150 rows make 21 full blocks and one of 3
    monkeypatch.setattr(imvc.graph, "_BLOCK_BYTES", 8 * 150 * 7)
    view = random_view(150, 6, seed=1)
    for k in (1, 4, 10):
        assert_graph_matches_reference(view, k)
    # one row per block
    monkeypatch.setattr(imvc.graph, "_BLOCK_BYTES", 1)
    assert_graph_matches_reference(view, 4)


def test_graph_with_subsampled_sigma_matches_reference():
    # beyond 2000 instances sigma comes from 2000 evenly spaced ones
    view = random_view(2003, 3, seed=2)
    assert_graph_matches_reference(view, 5)


def test_graph_errors_match_reference():
    same = ViewMatrix(view_id=3, data=np.zeros((2, 4)))
    cases = [
        (same, 1),  # degenerate sigma
        (random_view(5, 2, seed=3), 5),  # k too large
        (random_view(5, 2, seed=3), 0),  # k too small
    ]
    for view, k in cases:
        with pytest.raises(ValueError) as got:
            gaussian_knn_graph(view, k=k)
        with pytest.raises(ValueError) as want:
            reference.gaussian_knn_graph(view.data, k, view_id=view.view_id)
        assert str(got.value) == str(want.value)


def test_graph_build_holds_no_square_array():
    view = random_view(6000, 3, seed=4)
    tracemalloc.start()
    try:
        gaussian_knn_graph(view, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 6000 * 6000 / 4


# -------------------------------------------------------------- solver terms


def dense_ws(graphs):
    return [g.w.toarray() for g in graphs]


def test_view_costs_match_reference():
    for seed in range(6):
        gamma = 0.0 if seed == 5 else 1.3
        ds, graphs = random_problem(seed + 60, l=3, n=20, c=3, k=4, gamma=gamma)
        state = random_state(ds, 3, seed=seed)
        if seed % 2:
            # the expansion of ||X - U P||^2 needs no orthonormal U
            rng = np.random.default_rng(seed)
            state = type(state)(
                bases=tuple(rng.normal(size=u.shape) for u in state.bases),
                codes=state.codes,
                consensus=state.consensus,
                weights=state.weights,
            )
        cfg = SolverConfig(lam=0.8, beta=0.2, r=2.0, n_components=3)
        got = view_costs(ds, graphs, state, cfg)
        want = reference.view_costs(ds, dense_ws(graphs), state, lam=0.8, beta=0.2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_view_costs_graph_off_match_reference():
    ds, graphs = random_problem(70, l=2, n=15, c=2, k=3)
    state = random_state(ds, 2, seed=1)
    cfg = SolverConfig(lam=1.1, beta=0.3, r=2.0, n_components=2, graph_on=False)
    eyes = [np.eye(v.n_available) for v in ds.views]
    want = reference.view_costs(ds, eyes, state, lam=1.1, beta=0.3)
    np.testing.assert_allclose(view_costs(ds, graphs, state, cfg), want, rtol=1e-12, atol=0)


def test_updates_match_dense_normal_equations():
    for seed in range(5):
        ds, graphs = random_problem(seed + 80, l=3, n=25, c=3, k=4)
        rng = np.random.default_rng(seed)
        codes = [rng.normal(size=(3, v.n_available)) for v in ds.views]
        weights = np.array([0.2, 0.3, 0.5])
        got = update_consensus(codes, graphs, ds.availability, ds.n, weights, r=2.5)
        want = reference.update_consensus(
            codes, dense_ws(graphs), ds.availability, ds.n, weights, r=2.5
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

        view, ids, graph = ds.views[1], ds.availability[1], graphs[1]
        u, _ = np.linalg.qr(rng.normal(size=(view.n_features, 3)))
        q = rng.normal(size=(3, ds.n))
        got = update_codes(view.data, u, q, ids, graph, lam=0.7, beta=0.4)
        want = reference.update_codes(view.data, u, q, ids, graph.w.toarray(), 0.7, 0.4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_fit_holds_no_samples_by_instances_array():
    ds, graphs = random_problem(90, l=2, n=6000, c=3, dims=(5, 5), k=5)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=3.0, n_components=3, max_iter=3, tol=0.0)
    tracemalloc.start()
    try:
        fit(ds, graphs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_v = max(v.n_available for v in ds.views)
    assert peak < 8 * ds.n * n_v / 4
