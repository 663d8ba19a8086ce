"""view_costs takes each of its sums once per view over the (n_v, B, c)
stacks of a batch. A fit's costs must stay within rounding (1e-12 relative) of
the per-fit loop in synthetic.per_fit_view_costs, which sums each fit's own
arrays alone.

The stacks checked here are the ones fit hands view_costs, captured by
wrapping it: codes from initialize and from a sweep, a gathered consensus, a
W P^T that is a view of the sparse product, and the columns that _Batch.keep
has kept. _fit_sums, which view_costs takes its sums over samples with, is
checked against np.vdot fit by fit on the same stacks, and the stacks' layout
(one C-ordered row per sample, which the products read without a copy)
where fit hands them to the products.
"""

import numpy as np
import pytest

import imvc.solver
from imvc.solver import SolverConfig, _fit_sums, fit

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


def fit_capturing(monkeypatch, ds, graphs, cfgs, names):
    """Run fit with the library functions named wrapped to record their
    arguments; returns {name: [args, ...]}."""
    seen = {name: [] for name in names}
    for name in names:
        original = getattr(imvc.solver, name)

        def recorded(*args, name=name, original=original):  # looked up by module name
            seen[name].append(args)
            return original(*args)

        monkeypatch.setattr(imvc.solver, name, recorded)
    fit(ds, graphs, cfgs)
    return seen


def leaving_configs(c, max_iters=(4, 1, 3, 2)):
    """Fits that stop after 1 to 4 sweeps, so that later stacks are the
    columns _Batch.keep kept."""
    return [
        SolverConfig(lam=1.0, beta=1e-3, r=2.0, n_components=c, max_iter=m, tol=0.0, seed=m)
        for m in max_iters
    ]


@pytest.mark.parametrize("c, n, gamma", [(1, 41, 1.0), (3, 70, 1.0), (4, 90, 0.0), (10, 400, 1.0)])
def test_fit_sums_stay_within_rounding_of_vdot_fit_by_fit(monkeypatch, c, n, gamma):
    # a sum's rounding error is bounded by a multiple of the sum of its terms'
    # absolute values, so that is the scale of the tolerance
    ds, graphs = random_problem(c * n, l=2, n=n, c=c, dims=(c + 2, c + 5), rate=0.3, gamma=gamma)
    seen = fit_capturing(monkeypatch, ds, graphs, leaving_configs(c), ["view_costs"])
    # the set-up and each sweep, one call per view
    widths = [args[3].shape[1] for args in seen["view_costs"]]
    assert widths == [4] * 4 + [3] * 2 + [2] * 2 + [1] * 2
    for _, xtu, _, p, gathered, wp, graph, _, _ in seen["view_costs"]:
        ones = np.ones(len(p))
        terms = [(ones, p, xtu), (ones, np.abs(p), np.ones_like(p)), (ones, wp, gathered),
                 (graph.degree, p, p), (graph.degree, gathered, gathered)]
        for weights, a, b in terms:
            got = _fit_sums(weights, a * b)
            wa = weights[:, None, None] * a
            want = np.array([np.vdot(wa[:, j], b[:, j]) for j in range(a.shape[1])])
            scale = np.array([np.vdot(np.abs(wa[:, j]), np.abs(b[:, j])) for j in range(a.shape[1])])
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_fit_hands_the_products_c_ordered_rows_of_samples(monkeypatch):
    ds, graphs = random_problem(19, l=3, n=60, c=3, rate=0.3, k=4)
    names = ["_times_w", "update_basis", "view_costs"]
    seen = fit_capturing(monkeypatch, ds, graphs, leaving_configs(3), names)
    widths = [4] * 3 + [3] * 3 + [2] * 3 + [1] * 3
    # update_basis once per view and sweep; _times_w once per view at set-up,
    # and in each sweep for a view's gathered consensus and then its codes
    assert [args[1].shape[1] for args in seen["_times_w"]] == [4] * 3 + [
        w for w in widths for _ in range(2)
    ]
    assert [args[1].shape[1] for args in seen["update_basis"]] == widths
    stacks = [args[1] for args in seen["_times_w"] + seen["update_basis"]]
    stacks += [args[k] for args in seen["view_costs"] for k in (3, 4, 5)]  # p, gathered, wp
    for stack in stacks:
        n_v, fits, c = stack.shape
        assert c == 3 and n_v in [view.n_available for view in ds.views]
        assert stack.flags.c_contiguous
        assert np.shares_memory(stack.reshape(n_v, fits * c), stack)
    # X^T U is the transpose of the GEMM [U_1 ... U_B]^T X
    for args in seen["view_costs"]:
        assert args[1].transpose(1, 2, 0).flags.c_contiguous
