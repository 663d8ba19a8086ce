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
so one sweep per iteration never increases the cost. fit always starts from
initialize; its result is the in-memory SolverState, with its per-iteration
traces (the harness's write_trace writes them as CSV). A fitted state's
costs are its traces' rows; the library has no separate evaluator. This
module does no file I/O.

fit runs a batch of fits that share one masked dataset, its graphs and the
latent dimension (in the harness, one (rate, repeat, k) group's (lam, beta,
r) grid points) in lockstep: each sweep updates a block for all the fits
still running at once, and each fit leaves the batch when it meets its own
tol or max_iter, or fails (the shared block updates return {row: error}
for the fits they could not update). A single fit is a batch of one.

A batch holds every per-sample variable with one row per sample and one
column per (fit, component): the consensus is an (n, B, c) array, and each
view's codes P^T, gathered consensus Q[ids], W P^T and X^T U are (n_v, B, c)
stacks, C-ordered but for X^T U. Each view's products are one call for the
whole batch on the (n_v, B c) matrix such a stack is, a view and no copy: one
GEMM [U_1 ... U_B]^T X for the codes and the cost (X^T U is its transpose),
one GEMM X [P_1^T ... P_B^T] for the bases' targets, read as (B, m, c) for
the batched SVD, and one sparse product W [M_1^T ... M_B^T] for the gathered
consensus and for the codes. The bases are a (B, m, c) stack. Each view's
codes take two constants of the batch, h = 1 + lam d and thr = beta / (2 h)
as (n_v, B, c) stacks (_code_constants), which fit makes once for each
membership of the batch: at set-up and when fits leave. ||X||^2 is computed
once per batch, and the cost's W P^T is carried into the next consensus
update.

The contract: a fit's bits depend on its config, the batch it runs in (the
harness's chunk, which its group alone fixes), the BLAS kernel and NumPy's
SIMD level. They do not depend on the thread count, and so not on the
harness's worker count, the CPU count or the order its chunks run in. A
batched fit stays within rounding of the same fit run alone, as a GEMM's
sums follow the shape of the batch.

Samples are addressed through each view's availability ids (ds.availability):
Q gathered to view v is the rows Q[ids_v], and the consensus solve scatters
back through the same ids. W is a sparse CSR matrix with about k nonzeros per
row, used only through products W @ M, so one sweep costs O(nnz(W) c) in the
graph and no n_v x n_v array is formed. The two cost terms use expansions
that need no residual or distance matrix:

    ||X - U P||_F^2 = ||X||^2 - 2 <U^T X, P> + <U^T U, P P^T>    (any U)
    sum_ij W_ij ||p_i - q_j||^2 = d . ||P||^2_col + d . ||Q_v||^2_col
                                  - 2 <W P^T, Q_v^T>           (W = W^T, d = W 1)
"""

from __future__ import annotations

import time
from collections import ChainMap
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .dataset import MultiViewDataset, _count, _real, _seed, thread_map
from .graph import FusedGraph


@dataclass(frozen=True)
class SolverConfig:
    """Hyper-parameters and run controls for the solver.

    lam weights the graph-coupling term, beta the l1 sparsity penalty, r > 1
    smooths the view weights, and n_components is the latent dimension (the
    number of clusters); it and max_iter are integers of at least 1 (3.0 is
    taken as 3). weight_on is the one switch: off keeps the view weights
    uniform and never updates them. The other terms are turned off
    through the model's own weights: beta = 0 drops the l1 term, and fused
    graphs built with gamma = 0 are identities.
    """

    lam: float
    beta: float
    r: float
    n_components: int
    max_iter: int = 300
    tol: float = 1e-6
    seed: int = 0
    weight_on: bool = True

    def __post_init__(self):
        _real("lam", self.lam, lambda lam: 0 < lam < np.inf, "be positive")
        _real("beta", self.beta, lambda beta: 0 <= beta < np.inf, "be non-negative")
        _real("r", self.r, lambda r: 1 < r < np.inf, "be greater than 1")
        for name in ("n_components", "max_iter"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        _real("tol", self.tol, lambda tol: 0 <= tol < np.inf, "be non-negative")


@dataclass(frozen=True)
class SolverState:
    """Factorization variables plus the per-iteration traces.

    bases[v] is m_v x c orthonormal, codes[v] is c x n_v, consensus is c x n,
    weights is the length-l simplex vector. objective_trace[0] is the cost of
    the initial state; entry t is the cost after sweep t. cost_trace and
    weight_trace hold the per-view costs e_v and the weights at the same
    iterations. error is the exception that ended a failed fit, whose
    variables and traces are then those of its last completed sweep. seconds
    is the fit's share of its fit call's wall time: the set-up split evenly
    over the batch, and each sweep over the fits it ran.
    """

    bases: tuple[np.ndarray, ...]
    codes: tuple[np.ndarray, ...]
    consensus: np.ndarray
    weights: np.ndarray
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    cost_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    weight_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    error: Optional[Exception] = None
    seconds: float = 0.0

    @property
    def n_iterations(self) -> int:
        return max(len(self.objective_trace) - 1, 0)


def _times_w(graph: FusedGraph, stack: np.ndarray) -> np.ndarray:
    """W [M_1^T ... M_B^T] for an (n_v, B, c) stack of each fit's M^T: one
    sparse product of the (n_v, B c) matrix the stack views, returned as
    the (n_v, B, c) stack of each fit's W M^T."""
    return (graph.w @ stack.reshape(len(stack), -1)).reshape(stack.shape)


def _xtu(x: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """X^T U for a (B, m, c) stack of bases, as the (n_v, B, c) view of the
    transpose of one GEMM [U_1 ... U_B]^T X."""
    fits, m, c = bases.shape
    return (bases.swapaxes(1, 2).reshape(fits * c, m) @ x).T.reshape(-1, fits, c)


def _code_constants(graph: FusedGraph, lam: np.ndarray, beta: np.ndarray, c: int) -> tuple:
    """The codes' constants of the fits whose lam and beta are given, one
    value per fit: lam repeated over each fit's c columns as a (B, c) row,
    and h = 1 + lam * degree and thr = beta / (2 h) as C-ordered (n_v, B, c)
    stacks, so that update_codes makes only full, contiguous passes."""
    lam = np.repeat(lam, c).reshape(-1, c)
    h = 1.0 + lam * graph.degree[:, None, None]
    return lam, h, np.repeat(beta, c).reshape(-1, c) / (2.0 * h)


def update_basis(x: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Orthonormal bases maximizing trace(U^T X P^T) for an (n_v, B, c)
    stack of codes P^T: U = M N^T from the thin SVD X P^T = M diag(s) N^T,
    per fit, with the targets X P^T from one GEMM X [P_1^T ... P_B^T], read
    as (B, m, c). Returns the (B, m, c) stack of bases and {row: error} for
    the fits whose target is not finite, zeroed first, as one non-finite
    matrix fails the SVD of the stack."""
    n_v, fits, c = codes.shape
    target = x @ codes.reshape(n_v, -1)
    failed = np.flatnonzero(~np.isfinite(target).all(axis=0).reshape(fits, c).all(axis=1))
    target = target.reshape(-1, fits, c).swapaxes(0, 1)
    target[failed] = 0.0
    m, _, nt = np.linalg.svd(target, full_matrices=False)
    message = "non-finite values in the basis update target"
    return m @ nt, {int(j): ValueError(message) for j in failed}


def update_codes(
    x: np.ndarray,
    bases: np.ndarray,
    gathered: np.ndarray,
    graph: FusedGraph,
    lam: np.ndarray,
    h: np.ndarray,
    thr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form sparse codes of B fits via per-column soft thresholding.

    bases is the (B, m, c) stack, gathered the (n_v, B, c) stack of
    Q[ids], and lam, h and thr the batch's constants (_code_constants).
    With h_i = 1 + lam * degree_i and b_i the i-th row of
    B = X^T U + lam * W Q[ids], column i of a fit's codes is the soft
    threshold of b_i / h_i at thr_i = beta / (2 h_i). Returns the codes as
    the (n_v, B, c) stack of P^T, and X^T U (_xtu), which the cost reuses.
    """
    xtu = _xtu(x, bases)
    # (lam * W Q[ids] + xtu) / h, in the sparse product's own buffer
    v = _times_w(graph, gathered)
    np.multiply(v, lam, out=v)
    np.add(v, xtu, out=v)
    np.divide(v, h, out=v)
    return _soft_threshold(v, thr), xtu


def _soft_threshold(v: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """v - copysign(min(|v|, thr), v), written into v: the bits of
    max(0, v - thr) + min(0, v + thr), NaN and signed zeros included, in
    one pass fewer."""
    shrink = np.abs(v)
    np.minimum(shrink, thr, out=shrink)
    np.copysign(shrink, v, out=shrink)
    return np.subtract(v, shrink, out=v)


def update_consensus(
    wp: Sequence[np.ndarray],
    graphs: Sequence[FusedGraph],
    availability: Sequence[np.ndarray],
    n: int,
    weights: np.ndarray,
    r: Sequence[float],
) -> tuple[np.ndarray, dict[int, Exception]]:
    """Minimize the graph-coupling term over the consensus matrices of B fits.

    wp[v] is the (n_v, B, c) stack of W_v P^T, weights the (B, l) view
    weights and r the B exponents; availability holds each view's sample ids
    and n is the sample count. The normal matrix sum_v a_v^r G D G^T is
    diagonal (each sample collects its own degree from the views it appears
    in), so the solve is a columnwise division instead of a general inverse:
    each view adds whole rows of B c, one per sample it holds. Returns the
    (n, B, c) consensus and {row: error} for the fits where a sample
    carries no positive weight, whose denominators are set to 1.
    """
    _, fits, c = wp[0].shape
    numer = np.zeros((n, fits, c))
    denom = np.zeros((n, fits))
    for v, (prod, graph, ids) in enumerate(zip(wp, graphs, availability)):
        ar = np.array([a**s for a, s in zip(weights[:, v], r)])
        numer[ids] += prod * np.repeat(ar, c).reshape(fits, c)  # (P W)^T, as W = W^T
        denom[ids] += ar * graph.degree[:, None]
    failed = {}
    for row in np.flatnonzero((denom <= 0.0).any(axis=0)):
        bad = int(np.flatnonzero(denom[:, row] <= 0.0)[0])
        # a_v^r is 0 for a zero weight, or where a small weight underflows
        zero = ", ".join(str(v) for v, a in enumerate(weights[row]) if a ** r[row] == 0.0)
        why = f" (a_v^r is 0 at r={r[row]!r} for view(s) {zero})" if zero else ""
        failed[int(row)] = ValueError(
            f"sample {bad} carries no positive weight in any view{why}; the "
            "consensus update is infeasible"
        )
        denom[:, row] = 1.0
    return np.divide(numer, denom[:, :, None], out=numer), failed


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
    # a cost ratio past the float range is inf, and inf ** (1 / (1 - r)) the
    # zero weight that the closed form tends to
    with np.errstate(over="ignore"):
        scaled = (costs / costs.min()) ** (1.0 / (1.0 - r))
    return scaled / scaled.sum()


def _fit_sums(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * stack[i, j].sum() for each fit j of an (n_v, B, c)
    stack: one GEMV of the (n_v, B c) matrix, then a sum over each fit's c
    columns."""
    n_v, fits, c = stack.shape
    return (weights @ stack.reshape(n_v, -1)).reshape(fits, c).sum(axis=1)


def _graph_cost(
    p: np.ndarray, gathered: np.ndarray, wp: np.ndarray, graph: FusedGraph
) -> np.ndarray:
    """One view's sum_ij W[i, j] * ||p_i - gathered_j||^2 for each fit,
    given the (n_v, B, c) stacks p and gathered of its rows and
    wp = W p.

    For symmetric W with degrees d this is
    d . ||p||^2_row + d . ||gathered||^2_row - 2 <W p, gathered>. The
    identity-graph case reduces algebraically to the plain squared Frobenius
    difference, which is also the cheap way to evaluate it.
    """
    ones = np.ones(len(p))
    if graph.is_identity:
        return _fit_sums(ones, (p - gathered) ** 2)
    d = graph.degree
    return (
        _fit_sums(d, p * p)
        + _fit_sums(d, gathered * gathered)
        - 2.0 * _fit_sums(ones, wp * gathered)
    )


def view_costs(
    xx: float,
    xtu: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    gathered: np.ndarray,
    wp: np.ndarray,
    graph: FusedGraph,
    lam: np.ndarray,
    beta: np.ndarray,
) -> np.ndarray:
    """One view's cost e_v = reconstruction + beta * l1 + lam * graph term
    for each of B fits, as a (B,) array.

    xx = ||X||^2, u is the (B, m, c) stack of bases, and xtu = X^T U,
    p = P^T, gathered = Q[ids] and wp = W P^T are (n_v, B, c) stacks. The
    reconstruction is ||X||^2 - 2 <X^T U, P^T> + <U^T U, P P^T>, for any U.
    Each sum over samples is one GEMV for the batch (_fit_sums).

    ||X||^2 is an einsum rather than a BLAS dot because the two sum in
    different orders and can differ in the last bit; the einsum's sums are
    the ones every recorded trials.csv rests on.
    """
    ones = np.ones(len(p))
    pt = p.transpose(1, 2, 0)
    return (
        xx
        - 2.0 * _fit_sums(ones, p * xtu)
        + ((u.swapaxes(1, 2) @ u) * (pt @ pt.swapaxes(1, 2))).sum(axis=(1, 2))
        + beta * _fit_sums(ones, np.abs(p))
        + lam * _graph_cost(p, gathered, wp, graph)
    )


def _sweep_view(x, xx, codes, ids, graph, consts, consensus, lam, beta) -> tuple:
    """One view's part of a sweep once the consensus is updated, which needs
    no other view: its bases, their {row: error}, codes, W P^T and costs."""
    bases, failed = update_basis(x, codes)
    gathered = consensus[ids]
    codes, xtu = update_codes(x, bases, gathered, graph, *consts)
    wp = _times_w(graph, codes)
    costs = view_costs(xx, xtu, bases, codes, gathered, wp, graph, lam, beta)
    return bases, failed, codes, wp, costs


def _weighted_total(weights: np.ndarray, costs: np.ndarray, r: float) -> float:
    """sum_v a_v^r e_v, added left to right from 0 (the objective trace
    compares these sums bitwise)."""
    total = 0.0
    for a, e in zip(weights, costs):
        total += a**r * e
    return float(total)


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
    return SolverState(
        bases=tuple(bases),
        codes=tuple(codes),
        consensus=np.zeros((cfg.n_components, ds.n)),
        weights=np.full(ds.n_views, 1.0 / ds.n_views),
    )


@dataclass(frozen=True)
class _Batch:
    """The variables of the fits still running, and W P^T per view, carried
    from the cost to the next consensus update: the bases stacked along a
    leading axis and the per-sample stacks along their second (index j is
    fit fits[j]), in the layouts of the module docstring. A fit's objective,
    costs and weights are the rows of its record (fit)."""

    fits: np.ndarray
    bases: tuple[np.ndarray, ...]
    codes: tuple[np.ndarray, ...]
    consensus: np.ndarray
    wp: tuple[np.ndarray, ...]

    def keep(self, rows: np.ndarray) -> "_Batch":
        return _Batch(
            fits=self.fits[rows],
            bases=tuple(u[rows] for u in self.bases),
            codes=tuple(p.take(rows, axis=1) for p in self.codes),
            consensus=self.consensus.take(rows, axis=1),
            wp=tuple(m.take(rows, axis=1) for m in self.wp),
        )

    def state(self, j: int, record: list, error=None) -> SolverState:
        """Fit j as a fit's state, with its record (fit) as the traces and
        weights, in copies (its codes and consensus transposed back to c
        rows), so that a finished fit holds none of the batch's stacks."""
        objective, costs, weights = zip(*record)
        return SolverState(
            bases=tuple(u[j].copy() for u in self.bases),
            codes=tuple(p[:, j].T.copy() for p in self.codes),
            consensus=self.consensus[:, j].T.copy(),
            weights=weights[-1],
            objective_trace=np.array(objective),
            cost_trace=np.vstack(costs),
            weight_trace=np.vstack(weights),
            error=error,
        )


def fit(
    ds: MultiViewDataset,
    graphs: Sequence[FusedGraph],
    cfgs: Sequence[SolverConfig],
    threads: int = 1,
) -> tuple[SolverState, ...]:
    """Run one fit per config in lockstep, each by alternating sweeps
    (consensus, bases, codes, weights) to a local minimum.

    The configs share ds, graphs and n_components. A fit stops when its
    relative objective change drops to its tol or after its max_iter sweeps.
    A fit whose update fails (an infeasible consensus, a non-finite basis
    target or objective) leaves the batch at the end of that sweep with its
    state from before it and, as its error, its first one in block order and
    then view order; the others go on. fit itself raises only for what the
    whole batch shares. Returns one SolverState per config, in order.

    Each fit keeps one record, a list of (objective, costs, weights) rows,
    one per state it scored: a sweep takes the fit's weights from its last
    row, and the fit's state its traces and weights from the whole record.

    Once a sweep has updated the consensus, each view's bases, codes, W P^T
    and cost column depend on that view alone: they are one task per view,
    run on up to `threads` threads (dataset.thread_map), each with the bits
    it has serially, and the views' failures merge in view order.

    Overflow, invalid values and division by zero raise no RuntimeWarning
    in here: in an update the batch shares, a warning could not name its fit.
    Each fit's own checks end it instead.
    """
    start = time.perf_counter()
    cfgs = tuple(cfgs)
    if len(graphs) != ds.n_views:
        raise ValueError("need exactly one fused graph per view")
    for view, graph in zip(ds.views, graphs):
        if graph.n != view.n_available:
            raise ValueError(f"view {view.view_id}: graph shape does not match the data")
    if len({cfg.n_components for cfg in cfgs}) > 1:
        raise ValueError("the fits of one batch must share n_components")
    if not cfgs:
        return ()
    xs = [view.data for view in ds.views]
    c = cfgs[0].n_components
    lam = np.array([cfg.lam for cfg in cfgs])
    beta = np.array([cfg.beta for cfg in cfgs])
    results: list[Optional[SolverState]] = [None] * len(cfgs)
    seconds = np.zeros(len(cfgs))

    errstate = np.errstate(over="ignore", invalid="ignore", divide="ignore")
    with errstate, thread_map(threads) as each:
        inits = [initialize(ds, cfg) for cfg in cfgs]
        xx = [np.einsum("ij,ij->", x, x) for x in xs]
        bases = tuple(np.stack(u) for u in zip(*(s.bases for s in inits)))
        codes = tuple(np.stack(p).transpose(2, 0, 1).copy() for p in zip(*(s.codes for s in inits)))
        consensus = np.zeros((ds.n, len(cfgs), c))
        xtu = [_xtu(x, u) for x, u in zip(xs, bases)]
        gathered = [consensus[ids] for ids in ds.availability]
        wp = tuple(_times_w(graph, p) for graph, p in zip(graphs, codes))
        views = zip(xx, xtu, bases, codes, gathered, wp, graphs)
        costs = np.column_stack([view_costs(*view, lam, beta) for view in views])
        records = [
            [(_weighted_total(s.weights, e, cfg.r), e, s.weights)]
            for cfg, s, e in zip(cfgs, inits, costs)
        ]
        batch = _Batch(np.arange(len(cfgs)), bases, codes, consensus, wp)
        consts = [_code_constants(graph, lam, beta, c) for graph in graphs]
        seconds += (time.perf_counter() - start) / len(cfgs)

        it = 1
        while batch.fits.size:
            sweep_start = time.perf_counter()
            fits = batch.fits
            consensus, failed = update_consensus(
                batch.wp, graphs, ds.availability, ds.n,
                np.array([records[i][-1][2] for i in fits]), [cfgs[i].r for i in fits],
            )
            view_sweep = partial(_sweep_view, consensus=consensus, lam=lam[fits], beta=beta[fits])
            bases, basis_failed, codes, wp, costs = zip(
                *each(view_sweep, xs, xx, batch.codes, ds.availability, graphs, consts)
            )
            # a fit's first error, in block order and then view order
            failed = ChainMap(failed, *basis_failed)
            costs = np.column_stack(costs)
            swept = _Batch(fits, bases, codes, consensus, wp)
            running = []
            for j, i in enumerate(fits):
                cfg = cfgs[i]
                try:
                    if j in failed:
                        raise failed[j]
                    a = update_weights(costs[j], cfg.r) if cfg.weight_on else records[i][-1][2]
                    value = _weighted_total(a, costs[j], cfg.r)
                    if not np.isfinite(value):
                        raise ArithmeticError(f"objective diverged to {value} at iteration {it}")
                except (ArithmeticError, ValueError) as exc:  # the fit leaves as it was
                    exc.with_traceback(None)  # a traceback would hold this frame's stacks
                    results[i] = batch.state(j, records[i], exc)
                    continue
                prev = records[i][-1][0]
                records[i].append((value, costs[j], a))
                if abs(prev - value) / max(prev, 1e-12) <= cfg.tol or it == cfg.max_iter:
                    results[i] = swept.state(j, records[i])
                else:
                    running.append(j)
            batch = swept
            if len(running) < fits.size:  # fits left: so do their columns and constants
                batch = swept.keep(np.array(running, dtype=int))
                consts = [_code_constants(g, lam[batch.fits], beta[batch.fits], c) for g in graphs]
            seconds[fits] += (time.perf_counter() - sweep_start) / fits.size
            it += 1

    return tuple(replace(state, seconds=float(t)) for state, t in zip(results, seconds))
