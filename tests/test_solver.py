import math
from dataclasses import replace

import numpy as np
import pytest

import imvc.solver
from imvc.dataset import MultiViewDataset, ViewMatrix
from imvc.graph import build_fused_graphs
from imvc.harness import write_trace
from imvc.solver import (
    SolverConfig,
    SolverState,
    fit,
    initialize,
    update_weights,
)

from synthetic import (
    identity_graph,
    lone_basis,
    lone_codes,
    lone_consensus,
    lone_costs,
    lone_fit,
    lone_objective,
    masked_problem,
    multiview_blobs,
    random_problem,
    random_state,
)


def naive_objective(ds, graphs, state, lam, beta, r):
    """Triple-loop evaluation of the weighted cost, straight from the formula."""
    total = 0.0
    for view, graph, ids, u, p, a in zip(
        ds.views, graphs, ds.availability, state.bases, state.codes, state.weights
    ):
        x = view.data
        recon = x - u @ p
        rec = 0.0
        for i in range(recon.shape[0]):
            for j in range(recon.shape[1]):
                rec += recon[i, j] ** 2
        l1 = 0.0
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                l1 += abs(p[i, j])
        wmat = graph.w.toarray()
        gr = 0.0
        for i in range(p.shape[1]):
            for j in range(p.shape[1]):
                w = wmat[i, j]
                if w != 0.0:
                    d = 0.0
                    for kk in range(p.shape[0]):
                        d += (p[kk, i] - state.consensus[kk, ids[j]]) ** 2
                    gr += w * d
        total += a**r * (rec + beta * l1 + lam * gr)
    return total


def consensus_term(qmat, codes, graphs, availability, weights, r):
    """The part of the cost that depends on the consensus matrix."""
    total = 0.0
    for p, graph, ids, a in zip(codes, graphs, availability, weights):
        gathered = qmat[:, ids]
        sq = ((p[:, :, None] - gathered[:, None, :]) ** 2).sum(axis=0)
        total += a**r * float((graph.w.toarray() * sq).sum())
    return total


def grid_prox(target, threshold, step=1e-4):
    span = abs(target) + 1.0
    grid = np.arange(-span, span + step, step)
    vals = threshold * np.abs(grid) + 0.5 * (grid - target) ** 2
    return grid[np.argmin(vals)]


# ----------------------------------------------------------------- objective


def test_objective_zero_state_is_zero():
    ds, graphs = random_problem(0, l=2, n=6, c=2)
    state = random_state(ds, 2, seed=1, zero=True)
    cfg = SolverConfig(lam=2.0, beta=0.5, r=3.0, n_components=2)
    # bases are arbitrary orthonormal; codes, consensus, data terms all vanish
    zero_views = ds.views
    zero_ds = type(ds)(
        views=tuple(
            type(v)(view_id=v.view_id, data=np.zeros_like(v.data)) for v in zero_views
        ),
        n=ds.n,
        availability=ds.availability,
    )
    assert lone_objective(zero_ds, graphs, state, cfg) == 0.0


def test_objective_single_view_reduces_to_two_terms():
    ds, _ = random_problem(2, l=1, n=7, c=2, rate=0.0, k=3)
    graphs = (identity_graph(ds.views[0].n_available),)
    state = random_state(ds, 2, seed=3)
    state = SolverState(
        bases=state.bases,
        codes=state.codes,
        consensus=state.consensus,
        weights=np.array([1.0]),
    )
    cfg = SolverConfig(lam=1.7, beta=0.0, r=2.0, n_components=2)
    x, u, p = ds.views[0].data, state.bases[0], state.codes[0]
    gathered = state.consensus[:, ds.availability[0]]
    expect = np.sum((x - u @ p) ** 2) + 1.7 * np.sum((p - gathered) ** 2)
    assert lone_objective(ds, graphs, state, cfg) == pytest.approx(expect, rel=1e-14)
    # with a single view and unit weight the objective is the view cost itself
    assert lone_costs(ds, graphs, state, cfg)[0] == lone_objective(
        ds, graphs, state, cfg
    )


def test_objective_matches_triple_loop_oracle():
    for seed in range(5):
        ds, graphs = random_problem(seed, l=2, n=6, c=2, k=2)
        state = random_state(ds, 2, seed=seed + 10)
        cfg = SolverConfig(lam=0.9, beta=0.3, r=2.5, n_components=2)
        got = lone_objective(ds, graphs, state, cfg)
        want = naive_objective(ds, graphs, state, lam=0.9, beta=0.3, r=2.5)
        assert got == pytest.approx(want, rel=1e-12)


def test_view_costs_zero_state():
    ds, graphs = random_problem(4, l=3, n=8, c=2, k=2)
    zero_ds = type(ds)(
        views=tuple(
            type(v)(view_id=v.view_id, data=np.zeros_like(v.data)) for v in ds.views
        ),
        n=ds.n,
        availability=ds.availability,
    )
    state = random_state(zero_ds, 2, seed=0, zero=True)
    cfg = SolverConfig(lam=1.0, beta=1.0, r=2.0, n_components=2)
    assert np.array_equal(lone_costs(zero_ds, graphs, state, cfg), np.zeros(3))


def test_objective_is_weighted_sum_of_view_costs():
    for seed in range(5):
        ds, graphs = random_problem(seed + 20, l=3, n=7, c=2, k=2)
        state = random_state(ds, 2, seed=seed)
        cfg = SolverConfig(lam=1.3, beta=0.2, r=4.0, n_components=2)
        costs = lone_costs(ds, graphs, state, cfg)
        expect = sum(a**4.0 * e for a, e in zip(state.weights, costs))
        assert lone_objective(ds, graphs, state, cfg) == pytest.approx(expect, rel=1e-10)


# -------------------------------------------------------------- basis update


def test_basis_fixed_point_when_target_orthonormal():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    x = q  # codes = identity makes the SVD target equal q itself
    codes = np.eye(3)
    u = lone_basis(x, codes)
    assert np.allclose(u, q, atol=1e-12)


def test_basis_2x2_case_against_rotation_grid():
    target = np.array([[0.0, 2.0], [1.0, 0.0]])
    u = lone_basis(target, np.eye(2))
    assert np.allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    got = np.trace(u.T @ target)
    best = -np.inf
    for theta in np.arange(0.0, 2 * np.pi, 1e-4):
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        ref = np.array([[c, s], [s, -c]])
        best = max(best, np.trace(rot.T @ target), np.trace(ref.T @ target))
    assert got >= best - 1e-6
    assert got == pytest.approx(3.0, abs=1e-10)  # singular values 2 and 1


def test_basis_trace_equals_singular_value_sum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=(6, 9))
        codes = rng.normal(size=(3, 9))
        target = x @ codes.T
        u = lone_basis(x, codes)
        sigma_sum = np.linalg.svd(target, compute_uv=False).sum()
        assert np.trace(u.T @ target) == pytest.approx(sigma_sum, abs=1e-8)
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-10


def test_basis_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        lone_basis(np.array([[np.nan]]), np.array([[1.0]]))


# -------------------------------------------------------------- codes update


def build_hb(x, u, q, ids, graph, lam):
    gathered = q[:, ids]
    h = 1.0 + lam * graph.degree
    w = graph.w.toarray()
    b_rows = []
    for i in range(x.shape[1]):
        b_rows.append(x[:, i] @ u + lam * (w[i] @ gathered.T))
    return h, np.array(b_rows)


def test_codes_beta_zero_is_plain_ridge():
    ds, graphs = random_problem(6, l=1, n=8, c=3, dims=(5,), rate=0.0, k=3)
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    q = rng.normal(size=(3, ds.n))
    ids = ds.availability[0]
    p = lone_codes(ds.views[0].data, u, q, ids, graphs[0], lam=1.4, beta=0.0)
    h, b = build_hb(ds.views[0].data, u, q, ids, graphs[0], lam=1.4)
    assert np.allclose(p, b.T / h, rtol=1e-12, atol=1e-14)


def test_codes_scalar_cases_match_grid_prox():
    rng = np.random.default_rng(3)
    for _ in range(25):
        h = float(rng.uniform(1.1, 3.0))
        b = float(rng.uniform(-4.0, 4.0))
        beta = float(rng.uniform(0.0, 3.0))
        lam = h - 1.0
        graph = identity_graph(1)
        p = lone_codes(
            np.array([[b]]), np.array([[1.0]]), np.array([[0.0]]), np.array([0]), graph,
            lam, beta,
        )
        want = grid_prox(b / h, beta / (2 * h))
        assert abs(float(p[0, 0]) - want) <= 1e-4


def test_codes_threshold_dead_zone_outputs_zero():
    # |b/h| below beta/(2h) lands at exactly zero
    graph = identity_graph(1)
    p = lone_codes(
        np.array([[0.3]]), np.array([[1.0]]), np.array([[0.0]]), np.array([0]), graph,
        lam=0.0001, beta=1.0,
    )
    assert p[0, 0] == 0.0


def test_codes_local_optimality_probe():
    ds, graphs = random_problem(7, l=1, n=4, c=3, dims=(6,), rate=0.0, k=2)
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    q = rng.normal(size=(3, ds.n))
    lam, beta = 0.8, 0.6
    x = ds.views[0].data
    p_star = lone_codes(x, u, q, ds.availability[0], graphs[0], lam, beta)
    h, b = build_hb(x, u, q, ds.availability[0], graphs[0], lam)

    def cost(p):
        return float(np.trace(p @ np.diag(h) @ p.T) + beta * np.abs(p).sum() - 2 * np.trace(p @ b))

    base = cost(p_star)
    for _ in range(10_000):
        delta = rng.normal(size=p_star.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert base <= cost(p_star + delta) + 1e-12


# ---------------------------------------------------------- consensus update


def test_consensus_single_complete_view_returns_codes():
    ds, _ = random_problem(8, l=1, n=6, c=2, rate=0.0, k=2)
    graphs = (identity_graph(6),)
    p = np.random.default_rng(5).normal(size=(2, 6))
    q = lone_consensus([p], graphs, ds.availability, ds.n, np.array([1.0]), r=2.0)
    assert np.array_equal(q, p)


def test_consensus_two_views_equal_weights_average():
    ds, _ = random_problem(9, l=2, n=5, c=2, rate=0.0, k=2)
    graphs = (identity_graph(5), identity_graph(5))
    rng = np.random.default_rng(6)
    p1, p2 = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    q = lone_consensus([p1, p2], graphs, ds.availability, ds.n, np.array([0.5, 0.5]), r=1.0)
    assert np.allclose(q, (p1 + p2) / 2, rtol=1e-15, atol=0)


def test_consensus_infeasible_names_the_underflowed_views():
    # (1e-40)^9 underflows to 0, so sample 2, held by view 1 alone, has no weight
    graphs = (identity_graph(2, view_id=0), identity_graph(2, view_id=1))
    availability = (np.array([0, 1]), np.array([1, 2]))
    codes = [np.ones((2, 2)), np.ones((2, 2))]
    weights = np.array([1.0 - 1e-40, 1e-40])
    with pytest.raises(ValueError) as err:
        lone_consensus(codes, graphs, availability, 3, weights, r=9.0)
    assert str(err.value) == (
        "sample 2 carries no positive weight in any view (a_v^r is 0 at r=9.0 "
        "for view(s) 1); the consensus update is infeasible"
    )


def test_consensus_zeroes_gradient():
    for seed in range(5):
        ds, graphs = random_problem(seed + 30, l=2, n=5, c=2, k=2)
        rng = np.random.default_rng(seed)
        codes = [rng.normal(size=(2, v.n_available)) for v in ds.views]
        weights = np.array([0.3, 0.7])
        q = lone_consensus(codes, graphs, ds.availability, ds.n, weights, r=2.0)
        h = 1e-5
        grad = np.zeros_like(q)
        for i in range(q.shape[0]):
            for j in range(q.shape[1]):
                q_plus, q_minus = q.copy(), q.copy()
                q_plus[i, j] += h
                q_minus[i, j] -= h
                grad[i, j] = (
                    consensus_term(q_plus, codes, graphs, ds.availability, weights, 2.0)
                    - consensus_term(q_minus, codes, graphs, ds.availability, weights, 2.0)
                ) / (2 * h)
        assert np.max(np.abs(grad)) <= 1e-6


def test_consensus_rejects_uncovered_sample():
    ds, graphs = random_problem(10, l=2, n=6, c=2, k=2)
    codes = [np.zeros((2, v.n_available)) for v in ds.views]
    # zero weight on one view starves the samples that live only there
    only_in_second = set(ds.availability[1]) - set(ds.availability[0])
    assert only_in_second  # the mask left at least one such sample
    with pytest.raises(ValueError, match="no positive weight"):
        lone_consensus(codes, graphs, ds.availability, ds.n, np.array([1.0, 0.0]), r=2.0)


# ------------------------------------------------------------- weight update


def test_weights_uniform_for_equal_costs():
    for l in (2, 3, 5):
        w = update_weights(np.ones(l), r=3.0)
        assert np.allclose(w, np.full(l, 1.0 / l), rtol=1e-15, atol=0)


def test_weights_closed_form_example():
    w = update_weights(np.array([1.0, 4.0]), r=2.0)
    assert np.allclose(w, [0.8, 0.2], rtol=0, atol=1e-15)


def test_weights_flatten_as_r_grows():
    w = update_weights(np.array([1.0, 4.0]), r=11.0)
    assert np.max(np.abs(w - 0.5)) <= 0.04


def test_weights_match_simplex_grid_search():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 5001)
    for _ in range(10):
        e = rng.uniform(0.1, 5.0, size=2)
        r = float(rng.uniform(1.5, 6.0))
        w = update_weights(e, r)
        vals = grid**r * e[0] + (1 - grid) ** r * e[1]
        best = grid[np.argmin(vals)]
        assert abs(w[0] - best) <= 1e-3


def test_weights_zero_cost_views_take_all_weight():
    assert np.array_equal(update_weights(np.array([0.0, 5.0]), 2.0), [1.0, 0.0])
    assert np.array_equal(update_weights(np.array([0.0, 0.0]), 2.0), [0.5, 0.5])


def test_weights_reject_negative_costs():
    with pytest.raises(ValueError, match="non-negative"):
        update_weights(np.array([-1.0, 2.0]), 2.0)


def test_weights_stay_on_simplex():
    rng = np.random.default_rng(8)
    for _ in range(50):
        e = rng.uniform(1e-8, 1e4, size=int(rng.integers(2, 6)))
        w = update_weights(e, float(rng.uniform(1.1, 15.0)))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w.min() >= 0.0


# ------------------------------------------------------------- initialization


def test_initialize_orthonormal_and_deterministic():
    ds, _ = random_problem(11, l=3, n=10, c=3, dims=(5, 6, 7), k=3)
    cfg = SolverConfig(lam=1.0, beta=0.1, r=2.0, n_components=3, seed=42)
    a = initialize(ds, cfg)
    b = initialize(ds, cfg)
    for u, p, view in zip(a.bases, a.codes, ds.views):
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-10
        assert p.shape == (3, view.n_available)
        assert np.allclose(p, u.T @ view.data, rtol=0, atol=0)
    for ua, ub in zip(a.bases, b.bases):
        assert np.array_equal(ua, ub)
    assert np.array_equal(a.consensus, np.zeros((3, ds.n)))
    assert np.allclose(a.weights, np.full(3, 1 / 3))


def test_initialize_rejects_c_larger_than_view_dim():
    ds, _ = random_problem(12, l=2, n=8, c=2, dims=(3, 4), k=2)
    cfg = SolverConfig(lam=1.0, beta=0.1, r=2.0, n_components=4)
    with pytest.raises(ValueError, match="n_components"):
        initialize(ds, cfg)


# ----------------------------------------------------------------------- fit


def test_fit_blobs_monotone_and_converges():
    full = multiview_blobs(n=150, n_clusters=3, dims=(6, 8, 10), noise=0.5, seed=10)
    masked, graphs = masked_problem(full, rate=0.3, mask_seed=11)
    cfg = SolverConfig(lam=1.0, beta=0.001, r=3.0, n_components=3, seed=0)
    state = lone_fit(masked, graphs, cfg)
    trace = state.objective_trace
    assert state.n_iterations < 200
    assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-9))
    assert trace[-1] >= 0.0


def test_fit_beats_random_states_on_plain_model():
    ds, graphs = random_problem(14, l=2, n=12, c=2, k=3, gamma=0.0)
    assert all(g.is_identity for g in graphs)
    cfg = SolverConfig(
        lam=0.5, beta=0.0, r=2.0, n_components=2, seed=1, weight_on=False
    )
    state = lone_fit(ds, graphs, cfg)
    final = state.objective_trace[-1]
    for seed in range(50):
        rand = random_state(ds, 2, seed=seed)
        rand = SolverState(
            bases=rand.bases, codes=rand.codes, consensus=rand.consensus,
            weights=np.full(2, 0.5),
        )
        assert final <= lone_objective(ds, graphs, rand, cfg)


def test_fit_weight_off_keeps_weights_uniform():
    ds, graphs = random_problem(16, l=3, n=10, c=2, k=3)
    cfg = SolverConfig(
        lam=1.0, beta=0.01, r=2.0, n_components=2, seed=0, max_iter=20, weight_on=False
    )
    state = lone_fit(ds, graphs, cfg)
    assert np.allclose(state.weights, np.full(3, 1 / 3), rtol=0, atol=0)
    assert np.all(state.weight_trace == 1 / 3)


def test_fit_constraints_hold_every_iteration(monkeypatch):
    ds, graphs = random_problem(17, l=2, n=10, c=3, dims=(6, 7), k=3)
    cfg = SolverConfig(lam=1.0, beta=0.02, r=3.0, n_components=3, seed=5, max_iter=30)
    seen = []
    update_basis = imvc.solver.update_basis

    def checked(x, codes):  # the solver's loop looks it up by module name
        bases, failed = update_basis(x, codes)
        assert not failed
        for u in bases:
            assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-8
        seen.append(bases)
        return bases, failed

    monkeypatch.setattr(imvc.solver, "update_basis", checked)
    state = lone_fit(ds, graphs, cfg)
    # one basis update per view in each sweep, and one trace row per sweep
    # after the initial one
    assert seen and len(seen) == ds.n_views * state.n_iterations
    assert len(state.weight_trace) == len(state.cost_trace) == state.n_iterations + 1
    for weights in state.weight_trace[1:]:
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.min() >= 0.0


def test_fit_trace_starts_at_initial_objective():
    ds, graphs = random_problem(18, l=2, n=8, c=2, k=2)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=2, seed=2, max_iter=5)
    state = lone_fit(ds, graphs, cfg)
    assert state.objective_trace[0] == lone_objective(ds, graphs, initialize(ds, cfg), cfg)


def test_fit_on_a_zero_cost_view_fails_as_infeasible():
    # view 1 is all zeros, so its cost is 0 and update_weights gives it all
    # the weight; samples 0-9, held by view 0 alone, then carry none, and the
    # next consensus update fails the fit with its state from before that sweep
    rng = np.random.default_rng(0)
    views = (
        ViewMatrix(view_id=0, data=rng.normal(size=(4, 10))),
        ViewMatrix(view_id=1, data=np.zeros((4, 10))),
    )
    ds = MultiViewDataset(views=views, n=20, availability=(np.arange(10), np.arange(10, 20)))
    graphs = build_fused_graphs(ds, gamma=0.0)
    cfg = SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=2)
    (state,) = fit(ds, graphs, [cfg])
    assert state.n_iterations == 1
    assert np.array_equal(state.weights, [0.0, 1.0])
    assert isinstance(state.error, ValueError)
    assert str(state.error) == (
        "sample 0 carries no positive weight in any view (a_v^r is 0 at r=2.0 for "
        "view(s) 0); the consensus update is infeasible"
    )
    (state,) = fit(ds, graphs, [replace(cfg, weight_on=False)])
    assert state.error is None
    assert np.array_equal(state.weights, [0.5, 0.5])


def test_doubling_lam_never_shrinks_graph_share():
    # e_v(lam) = rest_v + lam * g_v, so two evaluations isolate both parts
    for seed in range(5):
        ds, graphs = random_problem(seed + 40, l=2, n=8, c=2, k=2)
        state = random_state(ds, 2, seed=seed)
        lam1, lam2 = 0.7, 1.4
        e1 = lone_costs(
            ds, graphs, state, SolverConfig(lam=lam1, beta=0.1, r=2.0, n_components=2)
        )
        e2 = lone_costs(
            ds, graphs, state, SolverConfig(lam=lam2, beta=0.1, r=2.0, n_components=2)
        )
        g = (e2 - e1) / (lam2 - lam1)
        rest = e1 - lam1 * g
        assert np.all(g > 0) and np.all(rest >= 0)
        share1 = lam1 * g / (rest + lam1 * g)
        share2 = lam2 * g / (rest + lam2 * g)
        assert np.all(share2 >= share1 - 1e-15)


# ------------------------------------------------------------- trace file


def test_write_trace_roundtrip(tmp_path):
    ds, graphs = random_problem(23, l=2, n=8, c=2, k=2)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=2, seed=1, max_iter=10)
    state = lone_fit(ds, graphs, cfg)
    path = tmp_path / "trace.csv"
    write_trace(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,objective,e_0,e_1,alpha_0,alpha_1")
    assert len(lines) == len(state.objective_trace) + 1
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[1]) == state.objective_trace[t]
        assert float(cells[2]) == state.cost_trace[t, 0]
        assert float(cells[4]) == state.weight_trace[t, 0]


# ------------------------------------------------------------- config checks


def test_fit_rejects_mismatched_inputs():
    ds, graphs = random_problem(24, l=2, n=8, c=2, k=2)
    cfg = SolverConfig(lam=1.0, beta=0.01, r=2.0, n_components=2)
    with pytest.raises(ValueError, match="one fused graph"):
        fit(ds, graphs[:1], [cfg])
    wrong = tuple(identity_graph(3, g.view_id) for g in graphs)
    with pytest.raises(ValueError, match="does not match"):
        fit(ds, wrong, [cfg])


def test_config_validation():
    with pytest.raises(ValueError, match="lam"):
        SolverConfig(lam=0.0, beta=0.1, r=2.0, n_components=2)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(lam=1.0, beta=-0.1, r=2.0, n_components=2)
    with pytest.raises(ValueError, match="r must be greater"):
        SolverConfig(lam=1.0, beta=0.1, r=1.0, n_components=2)
    with pytest.raises(ValueError, match="n_components"):
        SolverConfig(lam=1.0, beta=0.1, r=2.0, n_components=0)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("lam", math.nan, "lam must be positive, got nan"),
        ("lam", math.inf, "lam must be positive, got inf"),
        ("beta", math.nan, "beta must be non-negative, got nan"),
        ("beta", math.inf, "beta must be non-negative, got inf"),
        ("r", math.nan, "r must be greater than 1, got nan"),
        ("r", math.inf, "r must be greater than 1, got inf"),
        ("tol", math.nan, "tol must be non-negative, got nan"),
    ],
    ids=["lam-nan", "lam-inf", "beta-nan", "beta-inf", "r-nan", "r-inf", "tol-nan"],
)
def test_config_rejects_non_finite_parameters(key, value, message):
    # a NaN passes every comparison-based check unless the check asks for
    # the valid range; a NaN tol would leave every fit running to max_iter,
    # and an infinite lam, beta or r would fail it in its first sweep
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**{"lam": 1.0, "beta": 0.1, "r": 2.0, "n_components": 2, key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_components", 2.5),
        ("n_components", True),
        ("max_iter", 2.5),
        ("max_iter", math.inf),
        ("max_iter", math.nan),
        ("max_iter", True),
    ],
    ids=["n_components-2.5", "n_components-True", "max_iter-2.5", "max_iter-inf", "max_iter-nan",
         "max_iter-True"],
)
def test_config_rejects_non_integer_counts(key, value):
    # a max_iter of 2.5 or inf was taken and then ignored (a fit ran to its
    # tol), and an n_components of 2.5 failed later inside numpy
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
        SolverConfig(**{"lam": 1.0, "beta": 0.0, "r": 2.0, "n_components": 2, key: value})


@pytest.mark.parametrize(
    "seed, message",
    [(2.5, "an integer"), (True, "an integer"), (-1, "non-negative")],
    ids=["2.5", "True", "-1"],
)
def test_config_seed_is_a_non_negative_integer(seed, message):
    # 2.5 was taken and failed in initialize inside numpy's SeedSequence, -1
    # failed there without naming the seed, and True was taken as 1
    with pytest.raises(ValueError, match=f"^seed must be {message}, got {seed!r}$"):
        SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=2, seed=seed)
    whole = SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=2, seed=np.float64(7.0))
    assert whole.seed == 7 and type(whole.seed) is int


def test_config_takes_integral_floats_as_integers():
    cfg = SolverConfig(lam=1.0, beta=0.0, r=2.0, n_components=2.0, max_iter=np.float64(3.0))
    assert (cfg.n_components, cfg.max_iter) == (2, 3)
    assert type(cfg.n_components) is int and type(cfg.max_iter) is int
    ds, graphs = masked_problem(multiview_blobs(), rate=0.3)
    (state,) = fit(ds, graphs, [replace(cfg, tol=0.0)])
    assert state.n_iterations == 3 and state.consensus.shape == (2, ds.n)
