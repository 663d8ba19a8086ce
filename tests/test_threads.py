"""A trial runs its views' graph builds, its fits' per-view block updates and
its k-means restarts on the threads of its CPU share (dataset.thread_map), at
one OpenBLAS thread. Each threaded stage must give bit for bit what it gives
on one thread, its errors included, whatever the thread count.
"""

import sys
import threading

import numpy as np
import pytest

import imvc.graph
import imvc.solver
from imvc import build_fused_graphs, fit
from imvc.dataset import thread_map
from imvc.harness import one_blas_thread
from imvc.solver import SolverConfig

from synthetic import masked_problem, multiview_blobs
from test_lockstep import assert_same_fit, same_bits

THREADS = (2, 3, 4)


def test_a_thread_map_gives_the_results_and_first_error_in_item_order():
    for threads in (1, *THREADS):
        with thread_map(threads) as each:
            assert list(each(pow, range(7), [2] * 7)) == [i * i for i in range(7)]
            assert list(each(abs, [])) == []

            def fails(i):
                if i in (2, 5):
                    raise ValueError(f"item {i}")
                return i

            with pytest.raises(ValueError, match="item 2"):
                list(each(fails, range(7)))


def test_a_thread_map_runs_every_item_before_it_raises_the_first_error():
    # one path at any thread count: at one thread too, the items after a
    # failing one run before the first error in item order is raised
    for threads in (1, 2, 3):
        calls = []

        def fails(i):
            calls.append(i)
            if i in (2, 5):
                raise ValueError(f"item {i}")
            return i

        with thread_map(threads) as each:
            with pytest.raises(ValueError, match="item 2"):
                each(fails, range(7))
        assert sorted(calls) == list(range(7)), threads


def test_a_thread_map_keeps_the_callers_errstate_and_joins_its_threads():
    before = threading.active_count()
    with np.errstate(over="ignore"), thread_map(3) as each:
        # a RuntimeWarning would be an error here (filterwarnings = error)
        assert all(np.isinf(each(np.multiply, [1e308] * 6, [10.0] * 6)))
    assert threading.active_count() == before
    # threads beyond the items start no helper: 3 items, 2 helpers
    with thread_map(64) as each:
        assert each(abs, range(-1, 2)) == [1, 0, 1]
        assert threading.active_count() <= before + 2
    assert threading.active_count() == before


def test_a_thread_map_runs_each_item_once_under_stress():
    # more threads than CPUs, switching every microsecond: every item runs
    # exactly once and its result lands in its place
    calls = []

    def square(i):
        calls.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with thread_map(8) as each:
            for _ in range(20):
                calls.clear()
                assert each(square, range(200)) == [i * i for i in range(200)]
                assert sorted(calls) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def _views():
    """Views of unlike sizes, one past the 2000 instances that sigma samples."""
    full = multiview_blobs(n=2100, n_clusters=4, dims=(3, 12, 30, 5), noise=0.5, seed=8)
    masked, _ = masked_problem(full, rate=0.0, k=5, gamma=0.0)
    return masked


def test_pooled_graphs_equal_the_serial_build(monkeypatch):
    ds = _views()
    built = {}
    knn = imvc.graph.gaussian_knn_graph

    def recorded(view, k):  # build_fused_graphs looks it up by module name
        s, sigma = knn(view, k=k)
        built[threads, view.view_id] = s, sigma
        return s, sigma

    monkeypatch.setattr(imvc.graph, "gaussian_knn_graph", recorded)
    graphs = {}
    with one_blas_thread():
        for threads in (1, *THREADS):
            graphs[threads] = build_fused_graphs(ds, k=5, gamma=0.5, threads=threads)
    for threads in THREADS:
        for got, want in zip(graphs[threads], graphs[1]):
            assert got.view_id == want.view_id
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(got.w, name), getattr(want.w, name))
        for view in ds.views:
            (s, sigma), (s1, sigma1) = built[threads, view.view_id], built[1, view.view_id]
            assert sigma == sigma1
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(s, name), getattr(s1, name))


def test_a_pooled_fit_equals_the_serial_fit(monkeypatch):
    # fit 3 (lam = 1e308) overflows in the codes step of sweep 1, which a
    # helper thread runs under the caller's errstate, and leaves; at sweep 3
    # rows 0 and 1 of the batch are fits 0 and 1. Fit 0's basis update fails
    # in views 1 and 2 and fit 1's in view 2 alone: each leaves with its
    # first error in view order, whatever thread ran each view
    full = multiview_blobs(n=240, n_clusters=3, dims=(5, 7, 9), noise=0.6, seed=4)
    ds, graphs = masked_problem(full, rate=0.3, mask_seed=2, k=5)
    grid = [(1.0, 0.001, 3.0), (0.1, 0.0, 2.0), (10.0, 0.01, 5.0), (1e308, 0.001, 3.0),
            (0.5, 0.1, 9.0)]
    cfgs = [
        SolverConfig(lam=lam, beta=beta, r=r, n_components=3, max_iter=12, tol=0.0, seed=i)
        for i, (lam, beta, r) in enumerate(grid)
    ]
    update_basis = imvc.solver.update_basis
    calls = {}

    def failing(x, codes):  # the solver looks it up by module name
        m = x.shape[0]  # 5, 7 or 9 features: views 0, 1 and 2
        calls[m] = calls.get(m, 0) + 1  # each view's calls come from one task a sweep
        bases, failed = update_basis(x, codes)
        if calls[m] == 3:
            for row in {5: (), 7: (0,), 9: (0, 1)}[m]:
                failed[row] = ValueError(f"basis of the {m}-feature view")
        return bases, failed

    monkeypatch.setattr(imvc.solver, "update_basis", failing)
    states = {}
    with one_blas_thread():
        for threads in (1, *THREADS):
            calls.clear()
            states[threads] = fit(ds, graphs, cfgs, threads=threads)
    errors = [f"{type(s.error).__name__}: {s.error}" if s.error else "" for s in states[1]]
    assert errors == [
        "ValueError: basis of the 7-feature view",
        "ValueError: basis of the 9-feature view",
        "",
        "ArithmeticError: objective diverged to nan at iteration 1",
        "",
    ]
    assert [s.n_iterations for s in states[1]] == [2, 2, 12, 0, 12]
    for threads in THREADS:
        for got, want in zip(states[threads], states[1]):
            assert_same_fit(got, want)
