"""First-order optimality certificates of the solver's block updates (bases,
codes, consensus and weights), checked at a realistic size after every call
that a README-grid batch makes.

The descent property alone does not pin an update down: a codes step whose
soft threshold is doubled still never raises the objective on the problems
the property tests draw. A block's closed form, though, satisfies its block's
first-order condition, which costs no more to check than a sweep.
"""

import numpy as np
import pytest

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


def basis_residuals(x, codes, bases):
    """Each fit's |U^T U - I|, the asymmetry of U^T T and the smallest
    eigenvalue of its symmetric part, with T = X P^T, and the float slacks
    that bound them.

    The bases maximize trace(U^T T) over orthonormal U, so U is T's polar
    factor: U^T U = I and U^T T is symmetric positive semidefinite. T is
    formed here from the update's inputs, not taken from it.

    Slack, with u the unit roundoff, m the view's features, c the clusters
    and n its instances. The update forms T' = X P^T and this check T, each
    within gamma_n A of the exact product, A = |X| |P|^T (Higham 3.5), so
    ||T - T'||_2 <= 2 gamma_n a, a = ||A||_F >= ||T||_F. The SVD is backward
    stable (LAPACK Users' Guide, 4.9): the computed M, s, N are within
    p = m c u (the guide's p(m, n) eps, taking for p(m, n) the m n of
    Higham's bound for Householder reductions, Theorem 19.4, with which
    the SVD bidiagonalizes T') of orthonormal M~ and N~
    whose M~ diag(s) N~^T is exactly T' + E, ||E||_2 <= p ||T'||_2. So
    U* = M~ N~^T is the polar factor of T' + E, and H = U*^T (T' + E) =
    N~ diag(s) N~^T is symmetric positive semidefinite. The product M N^T
    adds at most gamma_c |M| |N|^T, whose 2-norm is at most c gamma_c
    (1 + p)^2, so ||U - U*||_2 <= d = 2 p + p^2 + c gamma_c (1 + p)^2.
    Then ||U^T U - I||_2 <= 2 d + d^2, and forming U^T U adds gamma_m
    |U|^T |U|, whose entries are at most (1 + d)^2. T and T' have
    Frobenius norms of at most t = (1 + gamma_n) a, and U^T T - H =
    (U - U*)^T T + U*^T (T - T' - E), whose 2-norm is at most
    (d + p) t + 2 gamma_n a; forming U^T T adds gamma_m |U|^T |T|, whose
    2-norm is at most gamma_m sqrt(c) (1 + d) t. With g their sum, the
    computed S = U^T T is H + G, ||G||_2 <= g: an entry of
    S - S^T is at most 2 g, and the smallest eigenvalue of (S + S^T) / 2 is
    at least -g. Its rounding (u relative, entry by entry) and the
    eigensolver's error (LAPACK Users' Guide, 4.7: p(c) eps ||.||_2, with
    p(c) = c^2) add at most (c^2 + 1) u ||(S + S^T) / 2||_F. The check
    allows twice each bound.
    """
    u = np.finfo(np.float64).eps / 2
    m, c = bases.shape[1:]
    n = x.shape[1]
    p = m * c * u
    d = 2 * p + p * p + c * gamma(c) * (1 + p) ** 2
    orth_slack = 2 * (2 * d + d * d + gamma(m) * (1 + d) ** 2)
    target = x @ codes.swapaxes(1, 2)
    a = np.linalg.norm(np.abs(x) @ np.abs(codes).swapaxes(1, 2), axis=(1, 2))
    t = (1 + gamma(n)) * a
    g = (d + p + gamma(m) * np.sqrt(c) * (1 + d)) * t + 2 * gamma(n) * a
    s = bases.swapaxes(1, 2) @ target
    sym = (s + s.swapaxes(1, 2)) / 2
    orth = np.abs(bases.swapaxes(1, 2) @ bases - np.eye(c)).max(axis=(1, 2))
    asym = np.abs(s - s.swapaxes(1, 2)).max(axis=(1, 2))
    low = np.linalg.eigvalsh(sym)[:, 0]
    low_slack = 2 * (g + (c * c + 1) * u * np.linalg.norm(sym, axis=(1, 2)))
    return (orth, orth_slack), (asym, 4 * g), (low, low_slack)


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


def consensus_residuals(codes, graphs, availability, weights, r, consensus):
    """Each fit's worst scaled residual of the consensus' first-order
    condition, and the float slack that bounds it.

    The consensus Q minimizes sum_v a_v^r sum_(i,t) W_v[i, t]
    ||p_vi - q_(ids_v[t])||^2. So for each sample j, with t its column in
    each view v that holds it, sum_v a_v^r (d_vt q_j - (P_v W_v)_t) = 0,
    the sum over those views. P_v W_v is formed here from the codes that
    the update's W P^T was made from, not taken from it; a_v^r is the
    update's own power of the same floats.

    Slack. With K the most nonzeros in a row of any W_v (W >= 0) and l the
    views, the update's W P^T and this check's P W are each within gamma_K
    (|P_v| W_v)_t of the exact product (Higham 3.5). The update then sums l
    terms a_v^r (W P^T)_t and l terms a_v^r d_vt, rounding each product,
    and divides: q_j sum_v a_v^r d_vt is within gamma_(K+l+3) of the exact
    numerator, relative to sum_v a_v^r (d_vt |q_j| + (|P_v| W_v)_t). This
    check rounds d_vt q_j, its difference with P W, the product with a_v^r
    and the sum over l views, within as much again. So every residual is at
    most 4 gamma_(K+l+8) times scale = sum_v a_v^r (d_vt |q_j| +
    (|P_v| W_v)_t), the factor 2 over the two sides' 2 gamma_(K+l+3)
    covering the scale's own rounding. A sample where scale is 0 has
    q_j = 0 and P W = 0, and must read a residual of exactly 0.
    """
    k = max(int(np.diff(graph.w.indptr).max()) for graph in graphs)
    slack = 4 * gamma(k + len(graphs) + 8)
    worst = np.empty(consensus.shape[0])
    for b, q in enumerate(consensus):
        residual = np.zeros_like(q)
        scale = np.zeros_like(q)
        for p, graph, ids, a in zip(codes, graphs, availability, weights[b]):
            assert (graph.w.data >= 0).all()
            ar = a ** r[b]
            residual[:, ids] += ar * (graph.degree * q[:, ids] - (graph.w @ p[b].T).T)
            scale[:, ids] += ar * (graph.degree * np.abs(q[:, ids]) + (graph.w @ np.abs(p[b]).T).T)
        worst[b] = (np.abs(residual) / np.where(scale > 0.0, scale, 1.0)).max()
    return worst, slack


def weights_residuals(costs, r, weights):
    """The relative spread of g_v = r a_v^(r-1) e_v over the views with
    a_v > 0, |sum_v a_v - 1|, and the float slacks that bound them.

    The weights minimize sum_v a_v^r e_v over the simplex, so with a
    multiplier mu the views' g_v all equal mu, and the weights sum to 1.
    The closed form a_v = t_v / sum t, t_v = (e_v / e_min)^s, s = 1/(1-r),
    gives g_v = r e_min (sum t)^(1-r) for every view.

    Slack, with u the unit roundoff and l the views, for normal a_v (which
    this asserts). The update rounds x_v = e_v / e_min, s and the power:
    t_v is off by |s| u + |s ln x_v| gamma_2 + gamma_2 relative, which the
    power r - 1 multiplies by r - 1 = 1 / |s|. The common divisor sum t
    cancels from the spread; its division adds (r - 1) u. This check rounds
    r - 1 (|(r - 1) ln a_v| u through the power), the power (gamma_2) and
    two products. So each g_v is within rho = gamma_N of the common value,
    N = 8 + 3 (r - 1) + 2 max_v |ln x_v| + (r - 1) max_v |ln a_v|, and two
    of them differ by at most 2 rho relative to the larger; the check
    allows twice that, 4 gamma_N. The sum: the update's sum t is within
    gamma_(l-1), each division within u and this check's sum within
    gamma_(l-1), so |sum_v a_v - 1| <= gamma_(2l).
    """
    costs, weights = np.asarray(costs), np.asarray(weights)
    live = weights > 0.0
    assert (weights[live] >= np.finfo(np.float64).tiny).all()
    g = r * weights[live] ** (r - 1.0) * costs[live]
    x = costs[live] / costs.min()
    n = 8 + 3 * (r - 1) + 2 * np.log(x).max() + (r - 1) * np.abs(np.log(weights[live])).max()
    spread = (g.max() - g.min()) / g.max()
    return spread, abs(weights.sum() - 1.0), 4 * gamma(n), gamma(2 * len(weights))


@pytest.fixture(scope="module")
def readme_batch():
    """One README-grid group at the roadmap's reference size (n = 2000,
    10 clusters, 30% of the views missing, k = 5), fitted 3 sweeps at tol 0,
    with the residuals of every basis, codes, consensus and weights update."""
    full = multiview_blobs(n=2000, n_clusters=10, dims=HANDWRITTEN_DIMS, seed=0)
    ds, graphs = masked_problem(full, rate=0.3, mask_seed=0, k=5)
    cfgs = [
        SolverConfig(lam=lam, beta=beta, r=r, n_components=10, max_iter=3, tol=0.0, seed=i)
        for i, (lam, beta, r) in enumerate(README_GRID)
    ]
    seen = {"bases": [], "codes": [], "consensus": [], "weights": []}
    update_basis = imvc.solver.update_basis
    update_codes = imvc.solver.update_codes
    update_consensus = imvc.solver.update_consensus
    update_weights = imvc.solver.update_weights
    times_w = imvc.solver._times_w
    made = {}  # per graph, the last W P^T the fit made and the codes P

    def products(graph, stack):
        made[id(graph)] = (times_w(graph, stack), stack)
        return made[id(graph)][0]

    def basis(x, codes):
        u, failed = update_basis(x, codes)
        assert failed == {}
        seen["bases"].append(basis_residuals(x, codes, u))
        return u, failed

    def codes(x, bases, gathered, graph, lam, beta):
        p, xtu = update_codes(x, bases, gathered, graph, lam, beta)
        seen["codes"].append(codes_residuals(x, bases, gathered, graph, lam, beta, p))
        return p, xtu

    def consensus(wp, graphs, availability, n, weights, r):
        q, failed = update_consensus(wp, graphs, availability, n, weights, r)
        assert all(prod is made[id(graph)][0] for prod, graph in zip(wp, graphs))
        stacks = [made[id(graph)][1] for graph in graphs]
        seen["consensus"].append(consensus_residuals(stacks, graphs, availability, weights, r, q))
        return q, failed

    def weights(costs, r):
        a = update_weights(costs, r)
        seen["weights"].append(weights_residuals(costs, r, a))
        return a

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imvc.solver, "_times_w", products)
        patch.setattr(imvc.solver, "update_basis", basis)
        patch.setattr(imvc.solver, "update_codes", codes)
        patch.setattr(imvc.solver, "update_consensus", consensus)
        patch.setattr(imvc.solver, "update_weights", weights)
        states = fit(ds, graphs, cfgs)
    assert [(s.error, s.n_iterations) for s in states] == [(None, 3)] * len(cfgs)
    return ds, cfgs, seen


def test_bases_are_their_targets_polar_factors_on_a_readme_grid_batch(readme_batch):
    ds, cfgs, seen = readme_batch
    # one call per view and sweep, each over all 27 fits: 405 fit-calls
    assert [len(orth) for (orth, _), _, _ in seen["bases"]] == [len(cfgs)] * (3 * ds.n_views)
    for (orth, orth_slack), (asym, asym_slack), (low, low_slack) in seen["bases"]:
        assert orth.max() <= orth_slack, (orth.max(), orth_slack)
        assert (asym <= asym_slack).all(), (asym / asym_slack).max()
        assert (low >= -low_slack).all(), (low / low_slack).min()


def test_codes_meet_their_first_order_condition_on_a_readme_grid_batch(readme_batch):
    ds, cfgs, seen = readme_batch
    # one call per view and sweep, each over all 27 fits
    assert [len(worst) for worst, _ in seen["codes"]] == [len(cfgs)] * (3 * ds.n_views)
    for worst, slack in seen["codes"]:
        assert worst.max() <= slack, (worst.max(), slack)


def test_consensus_meets_its_first_order_condition_on_a_readme_grid_batch(readme_batch):
    ds, cfgs, seen = readme_batch
    # one call per sweep, over all 27 fits
    assert [len(worst) for worst, _ in seen["consensus"]] == [len(cfgs)] * 3
    for worst, slack in seen["consensus"]:
        assert worst.max() <= slack, (worst.max(), slack)


def test_weights_meet_their_first_order_condition_on_a_readme_grid_batch(readme_batch):
    ds, cfgs, seen = readme_batch
    # one call per fit and sweep
    assert len(seen["weights"]) == 3 * len(cfgs)
    for spread, off, spread_slack, sum_slack in seen["weights"]:
        assert spread <= spread_slack, (spread, spread_slack)
        assert off <= sum_slack, (off, sum_slack)
