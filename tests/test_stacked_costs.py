"""view_costs takes each of its sums once per view over the (B, ...) stacks of
a batch. A fit's costs must stay within rounding (1e-12 relative) of the
per-fit loop in synthetic.per_fit_view_costs, which sums each fit's own
arrays alone.

The stacks checked here are the ones fit hands view_costs, captured by
wrapping it: codes from initialize and from a sweep, a gathered consensus, a
W P^T that is a view of the sparse product, and rows that _Batch.keep has
taken. _dots, which view_costs sums its inner products with, is checked
against np.vdot fit by fit on C-ordered, F-ordered and sliced stacks."""

import itertools

import numpy as np
import pytest

import imvc.solver
from imvc.solver import SolverConfig, _dots, fit

from synthetic import per_fit_view_costs, random_problem
from test_certificates import README_GRID


def fit_comparing_costs(monkeypatch, ds, graphs, cfgs):
    """Run fit with every view_costs call checked against the per-fit loop;
    returns the batch size of each call."""
    view_costs = imvc.solver.view_costs
    sizes = []

    def checked(xx, xtu, u, p, gathered, wp, graph, lam, beta):  # looked up by module name
        got = view_costs(xx, xtu, u, p, gathered, wp, graph, lam, beta)
        views = ([xx], [xtu], [u], [p], [gathered], [wp], [graph])
        want = per_fit_view_costs(*views, lam, beta)[:, 0]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12)
        sizes.append(len(got))
        return got

    monkeypatch.setattr(imvc.solver, "view_costs", checked)
    fit(ds, graphs, cfgs)
    return sizes


def configs(grid, c, max_iter, tol=1e-4):
    return [
        SolverConfig(lam=lam, beta=beta, r=r, n_components=c, max_iter=max_iter, tol=tol, seed=i)
        for i, (lam, beta, r) in enumerate(grid)
    ]


@pytest.mark.parametrize("fits", [1, 2, 27])
@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_stacked_costs_stay_within_rounding_of_the_per_fit_loop(monkeypatch, fits, gamma):
    # gamma = 0 builds identity graphs, whose term is the plain difference
    ds, graphs = random_problem(7, l=3, n=90, c=4, rate=0.3, k=5, gamma=gamma)
    assert all(graph.is_identity == (gamma == 0.0) for graph in graphs)
    sizes = fit_comparing_costs(monkeypatch, ds, graphs, configs(README_GRID[:fits], 4, 8))
    assert sizes[0] == fits and len(sizes) > 1


def test_stacked_costs_stay_within_rounding_of_the_per_fit_loop_after_fits_leave(monkeypatch):
    # fits stop after 1 to 6 sweeps: _Batch.keep drops their rows, and the
    # fits that run on are scored on the kept rows
    ds, graphs = random_problem(11, l=2, n=70, c=3, rate=0.3, k=4)
    cfgs = [
        SolverConfig(lam=1.0, beta=1e-3, r=2.0, n_components=3, max_iter=m, tol=0.0, seed=m)
        for m in (3, 1, 6, 2, 6, 4)
    ]
    sizes = fit_comparing_costs(monkeypatch, ds, graphs, cfgs)
    # the initial scoring of all 6, then each sweep, one call per view
    assert sizes == [6] * 2 + [6] * 2 + [5] * 2 + [4] * 2 + [3] * 2 + [2] * 4


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_stacked_costs_stay_within_rounding_of_the_per_fit_loop_at_one_cluster_and_odd_n_v(
    monkeypatch, gamma
):
    ds, graphs = random_problem(13, l=2, n=41, c=1, rate=0.0, k=3, gamma=gamma)
    assert all(view.n_available % 2 == 1 for view in ds.views)
    fit_comparing_costs(monkeypatch, ds, graphs, configs(README_GRID[:5], 1, 5))


def test_stacked_costs_stay_within_rounding_of_the_per_fit_loop_with_an_overflowing_fit(
    monkeypatch,
):
    # lam = 1e308 overflows in the codes step: that fit's costs are inf or
    # nan, and the others' are unchanged by it
    ds, graphs = random_problem(17, l=2, n=50, c=3, rate=0.3, k=4)
    grid = [(1.0, 1e-3, 2.0), (1e308, 1e-3, 2.0), (0.1, 0.0, 5.0)]
    fit_comparing_costs(monkeypatch, ds, graphs, configs(grid, 3, 4))


def _stacks(rng, fits, rows, cols):
    """Pairs of (fits, rows, cols) stacks in the layouts view_costs meets:
    C-ordered items, F-ordered items, and slices of larger stacks."""
    c = rng.normal(size=(fits, rows, cols))
    f = rng.normal(size=(fits, cols, rows)).swapaxes(1, 2)
    wide = rng.normal(size=(2 * fits, rows + 1, cols + 2))
    sliced = wide[::2, 1:, 2:]
    assert rows == 1 or not f[0].flags.c_contiguous and f[0].flags.f_contiguous
    assert not sliced.flags.c_contiguous
    return {"C": c, "F": f, "sliced": sliced}


@pytest.mark.parametrize("rows, cols", [(1, 7), (5, 280), (10, 1401), (3, 13334)])
def test_dots_stay_within_rounding_of_vdot_fit_by_fit(rows, cols):
    # a dot product's rounding error is bounded by a multiple of the product
    # of its arguments' norms, so that is the scale of the tolerance
    rng = np.random.default_rng(rows * cols)
    stacks = _stacks(rng, 3, rows, cols)
    for (name_a, a), (name_b, b) in itertools.product(stacks.items(), repeat=2):
        got = _dots(a, b)
        want = np.array([np.vdot(x, y) for x, y in zip(a, b)])
        scale = np.array([np.linalg.norm(x) * np.linalg.norm(y) for x, y in zip(a, b)])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (name_a, name_b)
