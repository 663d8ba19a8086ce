"""First-order optimality certificates of the solver's block updates, checked
at a realistic size after every call that a README-grid batch makes.

The descent property alone does not pin an update down: a codes step whose
soft threshold is doubled still never raises the objective on the problems
the property tests draw. A block's closed form, though, satisfies its block's
first-order condition, which costs no more to check than a sweep.
"""

import numpy as np

import imvc.solver
from imvc.solver import SolverConfig, fit

from synthetic import masked_problem, multiview_blobs

# the Handwritten digits set's view dimensions, as perfbench/synth.py draws them
HANDWRITTEN_DIMS = (76, 216, 64, 240, 47)
README_GRID = [
    (lam, beta, r)
    for lam in (0.001, 0.1, 10.0)
    for beta in (1e-5, 0.001, 0.1)
    for r in (2.0, 5.0, 9.0)
]


def gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error
    bound of k floating-point operations."""
    u = np.finfo(np.float64).eps / 2
    return k * u / (1 - k * u)


def codes_residuals(x, bases, gathered, graph, lam, beta, codes):
    """Each fit's worst scaled residual of the codes' first-order condition,
    and the float slack that bounds it.

    With h_i = 1 + lam d_i and b_i row i of X^T U + lam W Q[:, ids]^T, the
    codes P minimize sum_i h_i ||p_i||^2 - 2 b_i . p_i + beta ||p_i||_1 (the
    view's cost in P, taking U^T U = I, which is the bases' own condition).
    So, entry by entry, 2 h_i p_i - 2 b_i + beta sign(p_i) = 0 where
    p_i != 0, and |2 b_i| <= beta where p_i = 0. b is formed here from the
    update's inputs, not taken from it.

    Slack. An entry of a product with inner length k, summed in any order, is
    off by at most gamma_k times the same product of absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5). With
    a_i = |X|^T |U| + lam W |Q[:, ids]|^T (W >= 0) and K the longer of m
    and the most nonzeros in a row of W, the update's b and this check's b
    are each within gamma_(K+2) a_i of the exact one (+2: the lam product
    and the sum). The update then rounds h, b / h, beta / (2 h) and their
    difference, and this check rounds h, 2 h p, its sum with 2 b and beta
    sign(p): a few gamma_1 each, relative to 2 h |p|, 2 |b| and beta. So
    every residual is at most 4 gamma_(K+8) times
    scale = 2 h |p| + 2 a + beta, which is at least |2 h p| + |2 b| + beta
    and stays so where b cancels.
    """
    k = max(x.shape[0], int(np.diff(graph.w.indptr).max()))
    slack = 4 * gamma(k + 8)
    assert (graph.w.data >= 0).all()
    worst = np.empty(len(lam))
    for j, (lam_j, beta_j) in enumerate(zip(lam, beta)):
        b = x.T @ bases[j] + lam_j * (graph.w @ gathered[j].T)
        a = np.abs(x).T @ np.abs(bases[j]) + lam_j * (graph.w @ np.abs(gathered[j]).T)
        h = 1.0 + lam_j * graph.degree[:, None]
        p = codes[j].T
        residual = np.where(
            p != 0.0,
            np.abs(2.0 * h * p - 2.0 * b + beta_j * np.sign(p)),
            np.maximum(np.abs(2.0 * b) - beta_j, 0.0),
        )
        worst[j] = (residual / (2.0 * h * np.abs(p) + 2.0 * a + beta_j)).max()
    return worst, slack


def test_codes_meet_their_first_order_condition_on_a_readme_grid_batch(monkeypatch):
    # one README-grid group at the roadmap's reference size: n = 2000,
    # 10 clusters, 30% of the views missing, k = 5
    full = multiview_blobs(n=2000, n_clusters=10, dims=HANDWRITTEN_DIMS, seed=0)
    ds, graphs = masked_problem(full, rate=0.3, mask_seed=0, k=5)
    cfgs = [
        SolverConfig(lam=lam, beta=beta, r=r, n_components=10, max_iter=3, tol=0.0, seed=i)
        for i, (lam, beta, r) in enumerate(README_GRID)
    ]
    seen = []
    update_codes = imvc.solver.update_codes

    def certified(x, bases, gathered, graph, lam, beta):
        codes, xtu = update_codes(x, bases, gathered, graph, lam, beta)
        seen.append(codes_residuals(x, bases, gathered, graph, lam, beta, codes))
        return codes, xtu

    monkeypatch.setattr(imvc.solver, "update_codes", certified)
    states = fit(ds, graphs, cfgs)
    assert [(s.error, s.n_iterations) for s in states] == [(None, 3)] * len(cfgs)
    # one call per view and sweep, each over all 27 fits
    assert [len(worst) for worst, _ in seen] == [len(cfgs)] * (3 * ds.n_views)
    for worst, slack in seen:
        assert worst.max() <= slack, (worst.max(), slack)
