"""Alternating-minimization solver for graph-regularized sparse multi-view
factorization with missing views.

The model: each view's data X (features x available instances) is factorized
as X ~ U P with an orthonormal basis U and sparse codes P, while a shared
consensus matrix Q (latent dim x all samples) is coupled to every view's codes
through that view's fused graph W. The total cost is

    sum_v  a_v^r * ( ||X - U P||_F^2
                     + beta * ||P||_1
                     + lam * sum_ij ||P[:, i] - Q[:, sample(j)]||^2 * W[i, j] )

with simplex view weights a (smoothed by the exponent r > 1). Each of the four
blocks (consensus Q, bases U, codes P, weights a) has a closed-form minimizer,
so one sweep per iteration never increases the cost.

Samples are addressed through each view's availability ids (ds.availability):
Q gathered to view v is Q[:, ids_v], and the consensus solve scatters back
through the same ids. W is a sparse CSR matrix with about k nonzeros per row,
used only through products W @ M, so one sweep costs O(nnz(W) c) in the graph
and no n_v x n_v array is formed. The two cost terms use expansions that need
no residual or distance matrix:

    ||X - U P||_F^2 = ||X||^2 - 2 <U^T X, P> + <(U^T U) P, P>    (any U)
    sum_ij W_ij ||p_i - q_j||^2 = d . ||P||^2_col + d . ||Q_v||^2_col
                                  - 2 <W P^T, Q_v^T>           (W = W^T, d = W 1)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dataset import MultiViewDataset
from .graph import FusedGraph, identity_fused_graph


@dataclass(frozen=True)
class SolverConfig:
    """Hyper-parameters and run controls for the solver.

    lam weights the graph-coupling term, beta the l1 sparsity penalty, r > 1
    smooths the view weights, and n_components is the latent dimension (the
    number of clusters). Ablation switches: weight_on keeps the adaptive view
    weights (off: uniform, never updated), sparsity_on keeps the l1 term, and
    graph_on keeps the fused graphs (off: identity graphs everywhere).
    """

    lam: float
    beta: float
    r: float
    n_components: int
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 0
    weight_on: bool = True
    sparsity_on: bool = True
    graph_on: bool = True
    alpha_init: str = "uniform"  # or "ones": raw all-ones start

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.r <= 1:
            raise ValueError("r must be greater than 1")
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.alpha_init not in ("uniform", "ones"):
            raise ValueError("alpha_init must be 'uniform' or 'ones'")


@dataclass(frozen=True)
class SolverState:
    """Factorization variables plus the per-iteration traces.

    bases[v] is m_v x c orthonormal, codes[v] is c x n_v, consensus is c x n,
    weights is the length-l simplex vector. objective_trace[0] is the cost of
    the initial state; entry t is the cost after sweep t. cost_trace and
    weight_trace hold the per-view costs e_v and the weights at the same
    iterations.
    """

    bases: tuple[np.ndarray, ...]
    codes: tuple[np.ndarray, ...]
    consensus: np.ndarray
    weights: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    cost_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    weight_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def n_iterations(self) -> int:
        return max(len(self.objective_trace) - 1, 0)


def _effective_graphs(graphs: Sequence[FusedGraph], cfg: SolverConfig):
    if cfg.graph_on:
        return tuple(graphs)
    return tuple(identity_fused_graph(g.n, view_id=g.view_id) for g in graphs)


def _effective_beta(cfg: SolverConfig) -> float:
    return cfg.beta if cfg.sparsity_on else 0.0


def _times_w(graph: FusedGraph, m: np.ndarray) -> np.ndarray:
    """W @ m for an n_v x c matrix m, skipping the product when W = I."""
    return m if graph.is_identity else graph.w @ m


def update_basis(x: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Orthonormal basis maximizing trace(U^T X P^T): U = M N^T from the thin
    SVD X P^T = M diag(s) N^T."""
    target = x @ codes.T
    if not np.all(np.isfinite(target)):
        raise ValueError("non-finite values in the basis update target")
    m, _, nt = np.linalg.svd(target, full_matrices=False)
    return m @ nt


def update_codes(
    x: np.ndarray,
    basis: np.ndarray,
    consensus: np.ndarray,
    ids: np.ndarray,
    graph: FusedGraph,
    lam: float,
    beta: float,
) -> np.ndarray:
    """Closed-form sparse codes via per-column soft thresholding.

    ids are the view's availability ids. With h_i = 1 + lam * degree_i and
    b_i the i-th row of B = X^T U + lam * W * (Q[:, ids])^T, column i of the
    result is the soft threshold of b_i / h_i at beta / (2 h_i).
    """
    gathered = consensus[:, ids]  # c x n_v
    h = 1.0 + lam * graph.degree
    b = x.T @ basis + lam * _times_w(graph, gathered.T)  # n_v x c
    v = b.T / h
    if beta == 0.0:
        return v
    thr = beta / (2.0 * h)
    return np.maximum(0.0, v - thr) + np.minimum(0.0, v + thr)


def update_consensus(
    codes: Sequence[np.ndarray],
    graphs: Sequence[FusedGraph],
    availability: Sequence[np.ndarray],
    n: int,
    weights: np.ndarray,
    r: float,
) -> np.ndarray:
    """Minimize the graph-coupling term over the consensus matrix.

    availability holds each view's sample ids and n is the sample count. The
    normal matrix sum_v a_v^r G D G^T is diagonal (each sample collects its
    own degree from the views it appears in), so the solve is a columnwise
    division instead of a general inverse.
    """
    c = codes[0].shape[0]
    numer = np.zeros((c, n))
    denom = np.zeros(n)
    for p, graph, ids, a in zip(codes, graphs, availability, weights):
        ar = a**r
        numer[:, ids] += ar * _times_w(graph, p.T).T  # P W, as W is symmetric
        denom[ids] += ar * graph.degree
    if np.any(denom <= 0.0):
        bad = int(np.flatnonzero(denom <= 0.0)[0])
        raise ValueError(
            f"sample {bad} carries no positive weight in any view; the "
            "consensus update is infeasible"
        )
    return numer / denom


def update_weights(costs: np.ndarray, r: float) -> np.ndarray:
    """Simplex weights minimizing sum_v a_v^r e_v: a_v ~ e_v^(1/(1-r)).

    Zero-cost views take all the weight (the limit of the closed form),
    split uniformly among themselves; all-zero costs give uniform weights.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if np.any(costs < 0):
        raise ValueError("per-view costs must be non-negative")
    zero = costs == 0.0
    if zero.any():
        return zero / zero.sum()
    scaled = (costs / costs.min()) ** (1.0 / (1.0 - r))
    return scaled / scaled.sum()


def _reconstruction_cost(x: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
    """||X - U P||_F^2 = ||X||^2 - 2 <U^T X, P> + <(U^T U) P, P>, for any U.

    ||X||^2 is an einsum rather than a BLAS dot: the threaded BLAS dot over
    the whole view stalls when the harness runs trials on several threads.
    """
    xx = np.einsum("ij,ij->", x, x)
    return float(xx - 2.0 * np.vdot(u.T @ x, p) + np.vdot((u.T @ u) @ p, p))


def _graph_cost(p: np.ndarray, gathered: np.ndarray, graph: Optional[FusedGraph]) -> float:
    """sum_ij W[i, j] * ||p[:, i] - gathered[:, j]||^2 (graph=None: W = I).

    For symmetric W with degrees d this is
    d . ||p||^2_col + d . ||gathered||^2_col - 2 <W p^T, gathered^T>. The
    identity-graph case reduces algebraically to the plain squared Frobenius
    difference, which is also the cheap way to evaluate it.
    """
    if graph is None or graph.is_identity:
        return float(np.sum((p - gathered) ** 2))
    d = graph.degree
    return float(
        d @ np.einsum("ij,ij->j", p, p)
        + d @ np.einsum("ij,ij->j", gathered, gathered)
        - 2.0 * np.vdot(graph.w @ p.T, gathered.T)
    )


def view_costs(
    ds: MultiViewDataset,
    graphs: Sequence[FusedGraph],
    state: SolverState,
    cfg: SolverConfig,
) -> np.ndarray:
    """Per-view cost e_v = reconstruction + beta * l1 + lam * graph term."""
    beta = _effective_beta(cfg)
    costs = np.empty(ds.n_views)
    for v, (view, graph, ids) in enumerate(zip(ds.views, graphs, ds.availability)):
        u, p = state.bases[v], state.codes[v]
        gathered = state.consensus[:, ids]
        costs[v] = (
            _reconstruction_cost(view.data, u, p)
            + beta * np.abs(p).sum()
            + cfg.lam * _graph_cost(p, gathered, graph if cfg.graph_on else None)
        )
    return costs


def objective(
    ds: MultiViewDataset,
    graphs: Sequence[FusedGraph],
    state: SolverState,
    cfg: SolverConfig,
) -> float:
    """Weighted total cost sum_v a_v^r e_v."""
    costs = view_costs(ds, graphs, state, cfg)
    total = 0.0
    for a, e in zip(state.weights, costs):
        total += a**cfg.r * e
    return total


def initialize(ds: MultiViewDataset, cfg: SolverConfig) -> SolverState:
    """Seeded random orthonormal bases, codes = U^T X, zero consensus."""
    for view in ds.views:
        if cfg.n_components > view.n_features:
            raise ValueError(
                f"n_components={cfg.n_components} exceeds view {view.view_id}'s "
                f"feature dimension {view.n_features}"
            )
    rng = np.random.default_rng(cfg.seed)
    bases = []
    codes = []
    for view in ds.views:
        q, _ = np.linalg.qr(rng.standard_normal((view.n_features, cfg.n_components)))
        bases.append(q)
        codes.append(q.T @ view.data)
    l = ds.n_views
    weights = np.ones(l) if cfg.alpha_init == "ones" else np.full(l, 1.0 / l)
    return SolverState(
        bases=tuple(bases),
        codes=tuple(codes),
        consensus=np.zeros((cfg.n_components, ds.n)),
        weights=weights,
    )


def fit(
    ds: MultiViewDataset,
    graphs: Sequence[FusedGraph],
    cfg: SolverConfig,
    init_state: Optional[SolverState] = None,
    callback: Optional[Callable] = None,
) -> SolverState:
    """Run alternating sweeps (consensus, bases, codes, weights) to a local
    minimum.

    Stops when the relative objective change drops to cfg.tol or after
    cfg.max_iter sweeps. callback, if given, is invoked after every sweep as
    callback(iteration, bases, codes, consensus, weights).
    """
    if len(graphs) != ds.n_views:
        raise ValueError("need exactly one fused graph per view")
    for view, graph in zip(ds.views, graphs):
        if graph.n != view.n_available:
            raise ValueError(f"view {view.view_id}: graph shape does not match the data")
    state = initialize(ds, cfg) if init_state is None else init_state
    graphs_eff = _effective_graphs(graphs, cfg)
    beta = _effective_beta(cfg)
    xs = [view.data for view in ds.views]

    bases = list(state.bases)
    codes = list(state.codes)
    consensus = state.consensus
    weights = np.asarray(state.weights, dtype=np.float64)

    def current() -> SolverState:
        return SolverState(
            bases=tuple(bases),
            codes=tuple(codes),
            consensus=consensus,
            weights=weights,
        )

    costs = view_costs(ds, graphs, current(), cfg)
    trace = [float(sum(a**cfg.r * e for a, e in zip(weights, costs)))]
    cost_rows = [costs]
    weight_rows = [weights]

    for it in range(1, cfg.max_iter + 1):
        consensus = update_consensus(
            codes, graphs_eff, ds.availability, ds.n, weights, cfg.r
        )
        for v in range(ds.n_views):
            bases[v] = update_basis(xs[v], codes[v])
        for v in range(ds.n_views):
            codes[v] = update_codes(
                xs[v], bases[v], consensus, ds.availability[v], graphs_eff[v], cfg.lam, beta
            )
        costs = view_costs(ds, graphs, current(), cfg)
        if cfg.weight_on:
            weights = update_weights(costs, cfg.r)
        value = float(sum(a**cfg.r * e for a, e in zip(weights, costs)))
        if not np.isfinite(value):
            raise ArithmeticError(f"objective diverged to {value} at iteration {it}")
        trace.append(value)
        cost_rows.append(costs)
        weight_rows.append(weights)
        if callback is not None:
            callback(it, bases, codes, consensus, weights)
        prev = trace[-2]
        if abs(prev - value) / max(prev, 1e-12) <= cfg.tol:
            break

    return SolverState(
        bases=tuple(bases),
        codes=tuple(codes),
        consensus=consensus,
        weights=weights,
        objective_trace=np.asarray(trace),
        cost_trace=np.vstack(cost_rows),
        weight_trace=np.vstack(weight_rows),
    )


def write_trace(state: SolverState, path: str | Path) -> None:
    """Dump (iteration, objective, e per view, weight per view) as CSV."""
    l = state.weights.size
    header = (
        ["iteration", "objective"]
        + [f"e_{v}" for v in range(l)]
        + [f"alpha_{v}" for v in range(l)]
    )
    lines = [",".join(header)]
    for t, value in enumerate(state.objective_trace):
        row = [str(t), repr(float(value))]
        row += [repr(float(e)) for e in state.cost_trace[t]]
        row += [repr(float(a)) for a in state.weight_trace[t]]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def save_state(state: SolverState, directory: str | Path) -> None:
    """Serialize a state as one CSV per matrix plus a small manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "n_views": len(state.bases),
        "n_components": state.consensus.shape[0],
        "n_samples": state.consensus.shape[1],
        "view_dims": [u.shape[0] for u in state.bases],
        "view_counts": [p.shape[1] for p in state.codes],
        "iterations": state.n_iterations,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    fmt = "%.17e"
    for v, (u, p) in enumerate(zip(state.bases, state.codes)):
        np.savetxt(directory / f"basis_{v}.csv", u, delimiter=",", fmt=fmt)
        np.savetxt(directory / f"codes_{v}.csv", p, delimiter=",", fmt=fmt)
    np.savetxt(directory / "consensus.csv", state.consensus, delimiter=",", fmt=fmt)
    np.savetxt(directory / "weights.csv", state.weights, delimiter=",", fmt=fmt)
    trace = np.column_stack(
        [state.objective_trace, state.cost_trace, state.weight_trace]
    ) if state.objective_trace.size else np.empty((0, 0))
    np.savetxt(directory / "trace.csv", trace, delimiter=",", fmt=fmt)


def load_state(directory: str | Path) -> SolverState:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    l = manifest["n_views"]
    bases = tuple(
        np.loadtxt(directory / f"basis_{v}.csv", delimiter=",", ndmin=2)
        for v in range(l)
    )
    codes = tuple(
        np.loadtxt(directory / f"codes_{v}.csv", delimiter=",", ndmin=2)
        for v in range(l)
    )
    consensus = np.loadtxt(directory / "consensus.csv", delimiter=",", ndmin=2)
    weights = np.loadtxt(directory / "weights.csv", delimiter=",", ndmin=1)
    trace = np.loadtxt(directory / "trace.csv", delimiter=",", ndmin=2)
    if trace.size:
        objective_trace = trace[:, 0]
        cost_trace = trace[:, 1 : 1 + l]
        weight_trace = trace[:, 1 + l :]
    else:
        objective_trace = np.empty(0)
        cost_trace = np.empty((0, 0))
        weight_trace = np.empty((0, 0))
    return SolverState(
        bases=bases,
        codes=codes,
        consensus=consensus,
        weights=weights,
        objective_trace=objective_trace,
        cost_trace=cost_trace,
        weight_trace=weight_trace,
    )
