"""Measurements: stationarity, residuals, estimation error, the merit
function with its inequality checkers and step-constant feasibility report,
and rate fitting.

The headline quantity is the network stationarity measure evaluated at the
agent average: the squared prox-gradient gap of the aggregate objective plus
the consensus spread,

    || xbar - prox_{sum_i h_i}^1 (xbar - mean_i grad f_i(xbar)) ||^2
        + sum_i || x_i - xbar ||^2.

Inequality checkers never abort a run; they produce structured records that
the simulator attaches to the trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, laplacian, residual
from .hsm_admm import Schedules
from .problems import (CompositeProblem, batch_gradients, empirical_sigma_sq,
                       global_mean_gradient, h_values, per_sample_gradients,
                       prox_h, smooth_values)


# Proof constants, fixed at 1: THETA is the Young's-inequality split in the
# dual-step bound and in c_beta, C_GAMMA weights the current estimation error
# in the merit function. C_ERR, the previous error's weight, sits at its lower
# admissible value 12 (1 + 1/theta).
THETA = 1.0
C_GAMMA = 1.0
C_ERR = 12.0 * (1.0 + 1.0 / THETA)


class InsufficientTrace(ValueError):
    """Rate fitting needs a long enough logged trace."""


@dataclass
class StationarityReport:
    prox_gradient_gap: float
    consensus_gap: float
    total: float


def stationarity_measure(prob: CompositeProblem, xs) -> StationarityReport:
    """Stationarity at the agent average.

    The prox in the first term is that of the *sum* of the local
    regularizers at unit scale; for a uniform l1 weight across agents this
    is soft thresholding at n times the weight.
    """
    xs = np.asarray(xs, dtype=float)
    xbar = xs.mean(axis=0)
    prox_pt = prox_h(prob, xbar - global_mean_gradient(prob, xbar), float(prob.n))
    prox_gap = float(np.sum((xbar - prox_pt) ** 2))
    cons_gap = float(np.sum((xs - xbar) ** 2))
    return StationarityReport(prox_gap, cons_gap, prox_gap + cons_gap)


@dataclass
class Residuals:
    consensus: float
    splitting: float
    combined: float


def residuals(graph: Graph, xs, ys) -> Residuals:
    """Norms of the edge-difference, splitting, and stacked residuals of
    (n, p) arrays; the stacked one satisfies combined^2 = consensus^2 +
    splitting^2 by the block structure."""
    r = residual(graph, xs, ys)
    return Residuals(float(np.linalg.norm(r[:graph.m])),
                     float(np.linalg.norm(r[graph.m:])), float(np.linalg.norm(r)))


def gradient_error(prob: CompositeProblem, xs, vs) -> float:
    """Stacked squared estimation error: sum_i ||v_i - grad f_i(x_i)||^2 from
    one exact ``batch_gradients`` pass, the rows' sums added in agent order
    (bit for bit the per-agent ``full_gradient`` sum)."""
    D = np.asarray(vs, dtype=float) - batch_gradients(prob, xs, None)
    return sum(np.sum(D ** 2, axis=1).tolist())


def step_matrix_base(graph: Graph, sched: Schedules, *, degrees) -> np.ndarray:
    """Constant part of the n x n step-minus-penalty matrix,

        S = diag(c_eta (d + 1)) - c_rho (L + I),

    with d = ``degrees`` from ``hsm_admm.step_degrees``; the matrix at round
    k is (k+1)^{1/3} S.
    On the stacked variable the analysis matrix is S kron I_p: its spectrum
    is that of S with each eigenvalue repeated p times, and on an (n, p)
    block array X it acts as S @ X, so every analysis quantity is computed
    on S alone."""
    return (np.diag(sched.c_eta * (np.asarray(degrees, dtype=float) + 1.0))
            - sched.c_rho * (laplacian(graph) + np.eye(graph.n)))


def make_lyapunov_constants(s_norm: float, L: float, c_rho: float) -> float:
    """The merit function's momentum weight c_beta at its lower admissible
    value,

        c_beta = (6 (1 + 1/theta) ||S||_2^2 + 12 L^2 (1 + 1/theta)) / c_rho,

    with theta = ``THETA`` and ``s_norm`` = ||S||_2 of ``step_matrix_base``."""
    inv = 1.0 + 1.0 / THETA
    return (6.0 * inv * s_norm ** 2 + 12.0 * L * L * inv) / c_rho


@dataclass
class FeasibilityReport:
    """Step-constant positivity at the merit's constants: ``margin`` is the
    smaller of the error and step-matrix margins at the momentum weight
    ``c_mu`` that maximizes it, and ``feasible`` means it is positive."""

    feasible: bool
    c_mu: float
    margin: float


def constants_feasibility(graph: Graph, sched: Schedules, L: float, S,
                          c_beta: float) -> FeasibilityReport:
    """Positivity of the error coefficient and of the step matrix at
    theta = ``THETA``, c_gamma = ``C_GAMMA`` and c_err = ``C_ERR``, with the
    free weight c_mu at its best value.

    The error-term margin is

        margin_e = 2 c_a c_gamma - 1/(2 c_mu) - (12 (1 + 1/theta) + c_err) / c_rho

    and the step matrix whose smallest eigenvalue is margin_x is

        (C_eta - c_rho/2 AtA) - 3(1+theta)/(2 c_rho) S^2
        - (c_mu/2 + c_beta/2 + L/2 + 2 L^2 c_gamma) I,

    with S = C_eta - c_rho AtA from ``step_matrix_base``, c_beta from
    ``make_lyapunov_constants`` and AtA = L_graph + I, all n x n. c_mu
    enters only as margin_e = E0 - 1/(2 c_mu), rising, and margin_x =
    X0 - c_mu/2, falling, so the smaller margin peaks where they cross: at
    the positive root of c^2 - 2 Delta c - 1 = 0 with Delta = X0 - E0.

    The report does not enforce anything: the desk problems run fine
    outside the certified region, which as transcribed holds a single node
    and, on every configuration scanned, no graph with an edge.
    """
    half = S + 0.5 * sched.c_rho * (laplacian(graph) + np.eye(graph.n))
    step_min = float(np.linalg.eigvalsh(
        half - (1.5 * (1.0 + THETA) / sched.c_rho) * (S @ S))[0])
    e0 = (2.0 * sched.c_a * C_GAMMA
          - (12.0 * (1.0 + 1.0 / THETA) + C_ERR) / sched.c_rho)
    x0 = step_min - 0.5 * c_beta - 0.5 * L - 2.0 * L * L * C_GAMMA
    delta = x0 - e0
    root = math.hypot(delta, 1.0)
    # the root's two forms; each avoids cancellation on its side of 0
    c_mu = delta + root if delta >= 0 else 1.0 / (root - delta)
    margin = min(e0 - 0.5 / c_mu, x0 - 0.5 * c_mu)
    return FeasibilityReport(feasible=margin > 0, c_mu=c_mu, margin=margin)


@dataclass
class LyapunovSnapshot:
    phi: float
    al_value: float
    err_term: float
    err_prev_term: float
    momentum_term: float


def augmented_lagrangian(prob: CompositeProblem, graph: Graph,
                         xs, ys, lam, rho: float) -> float:
    """F(x) + H(y) - <lam, Ax + By> + rho/2 ||Ax + By||^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    F = sum(smooth_values(prob, xs).tolist())
    H = sum(h_values(prob, ys).tolist())
    r = residual(graph, xs, ys).ravel()
    return float(F + H - lam @ r + 0.5 * rho * float(r @ r))


def lyapunov(prob: CompositeProblem, graph: Graph, sched: Schedules,
             c_beta: float, k: int, xs, ys, lam, xs_prev,
             err_sq: float, err_prev_sq: float) -> LyapunovSnapshot:
    """Merit value at state index k (two completed rounds required):
    the augmented Lagrangian at the previous round's penalty, plus weighted
    current and previous estimation errors (``gradient_error`` at states k
    and k-1), plus the weighted squared last step."""
    if k < 2:
        raise ValueError(f"merit needs state index >= 2, got {k}")
    xs = np.asarray(xs, dtype=float)
    rho_prev = sched.rho(k - 1)
    al = augmented_lagrangian(prob, graph, xs, ys, lam, rho_prev)
    inv_gamma = C_GAMMA * float(k) ** (1.0 / 3.0)
    beta_k = c_beta * float(k) ** (1.0 / 3.0)
    err_term = inv_gamma * err_sq
    err_prev_term = C_ERR / rho_prev * err_prev_sq
    momentum_term = 0.5 * beta_k * float(np.sum((xs - np.asarray(xs_prev)) ** 2))
    phi = al + err_term + err_prev_term + momentum_term
    return LyapunovSnapshot(phi, al, err_term, err_prev_term, momentum_term)


def descent_drift(sched: Schedules, k: int, r_sq: float, sigma_sq: float) -> float:
    """Allowed merit increase over the transition from state k to k+1: the
    penalty-growth term plus the momentum-noise term."""
    rho_step = 0.5 * (sched.rho(k) - sched.rho(k - 1))
    a = sched.a(k)
    inv_gamma_next = C_GAMMA * float(k + 1) ** (1.0 / 3.0)
    return rho_step * r_sq + 2.0 * a * a * sigma_sq * inv_gamma_next


class DualBoundChecker:
    """Deterministic per-round bound on the squared dual step.

    With S the step-minus-penalty matrix and E the stacked estimation error,
    the transition into state s (s >= 2) must satisfy

        ||lam^s - lam^{s-1}||^2
            <= (1+theta) ||S^{(s-1)} dx^s||^2
             + (2 (1+1/theta) ||S^{(s-2)}||_2^2 + 4 L^2 (1+1/theta)) ||dx^{s-1}||^2
             + 8 (1+1/theta) (||E^{s-1}||^2 + ||E^{s-2}||^2).

    Violations are recorded, never raised: an empirical violation flags a
    subtlety in the bound's range condition, not a broken update. S is
    (k+1)^{1/3} times the n x n ``step_matrix_base`` ``S_base``, applied to
    the (n, p) state arrays as S @ dx; ``s_base_norm`` is its ||.||_2.
    """

    def __init__(self, S_base, s_base_norm: float, L: float):
        self.L = L
        self.S_base = S_base
        self.s_base_norm = s_base_norm

    def check(self, s: int, xs, xs_prev, xs_prev2, lam, lam_prev,
              err_sq_prev: float, err_sq_prev2: float):
        """Evaluate at state index s >= 2 on (n, p) iterates; returns a
        violation record or None. The bound holds up to a relative slack of
        1e-9 of max(1, rhs), for rounding."""
        xs_prev = np.asarray(xs_prev, dtype=float)
        dx = np.asarray(xs, dtype=float) - xs_prev
        dx_prev = xs_prev - np.asarray(xs_prev2, dtype=float)
        dlam = np.asarray(lam, dtype=float) - np.asarray(lam_prev, dtype=float)
        lhs = float(dlam @ dlam)
        t_cur = float(s) ** (1.0 / 3.0)          # round s-1 evaluates at t = s
        t_prev = float(s - 1) ** (1.0 / 3.0)
        S_dx = t_cur * (self.S_base @ dx)
        inv = 1.0 + 1.0 / THETA
        rhs = ((1.0 + THETA) * float(np.vdot(S_dx, S_dx))
               + (2.0 * inv * (t_prev * self.s_base_norm) ** 2
                  + 4.0 * self.L ** 2 * inv) * float(np.vdot(dx_prev, dx_prev))
               + 8.0 * inv * (err_sq_prev + err_sq_prev2))
        if lhs <= rhs + 1e-9 * max(1.0, rhs):
            return None
        return {"check": "dual_step_bound", "k": int(s), "lhs": lhs, "rhs": rhs}


def momentum_recursion_mc_check(prob: CompositeProblem, xs_prev, xs_new, vs_prev,
                                a: float, n_draws: int, rng) -> dict:
    """Monte-Carlo check of the one-step variance recursion of the momentum
    estimator at a frozen state.

    Draws ``n_draws`` independent single-sample refreshes from the frozen
    (x^k, x^{k+1}, v^k) and compares the empirical mean squared error against

        (1-a)^2 ||E^k||^2 + 2 a^2 sigma^2 + 2 L^2 (1-a)^2 ||dx||^2

    with the empirical stacked variance at x^{k+1} standing in for sigma^2
    and L the problem's smoothness; ``ok`` allows four standard errors.
    """
    xs_prev = np.asarray(xs_prev, dtype=float)
    xs_new = np.asarray(xs_new, dtype=float)
    vs_prev = np.asarray(vs_prev, dtype=float)
    L = prob.smoothness
    sq = np.zeros(n_draws)
    err_prev_sq = 0.0
    for i in range(prob.n):
        G_new = per_sample_gradients(prob, i, xs_new[i])
        G_old = per_sample_gradients(prob, i, xs_prev[i])
        g_full_new = G_new.mean(axis=0)
        g_full_old = G_old.mean(axis=0)
        err_prev_sq += float(np.sum((vs_prev[i] - g_full_old) ** 2))
        idx = rng.integers(0, G_new.shape[0], size=n_draws)
        v_plus = G_new[idx] + (1.0 - a) * (vs_prev[i] - G_old[idx])
        sq += np.sum((v_plus - g_full_new) ** 2, axis=1)
    lhs = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(n_draws))
    sigma_sq = empirical_sigma_sq(prob, xs_new)
    dx_sq = float(np.sum((xs_new - xs_prev) ** 2))
    rhs = ((1.0 - a) ** 2 * err_prev_sq + 2.0 * a * a * sigma_sq
           + 2.0 * L * L * (1.0 - a) ** 2 * dx_sq)
    return {"lhs": lhs, "rhs": rhs, "se": se, "ok": lhs <= rhs + 4.0 * se,
            "err_prev_sq": err_prev_sq, "sigma_sq": sigma_sq, "dx_sq": dx_sq}


def rounds_to_tolerance(ks, stats, tol: float) -> int | None:
    """First logged round ``ks[j]`` whose stationarity total ``stats[j]`` is
    at most ``tol``, or None if no logged round reaches it."""
    hit = np.flatnonzero(np.asarray(stats) <= tol)
    return int(ks[hit[0]]) if hit.size else None


def min_prefix(values) -> np.ndarray:
    return np.minimum.accumulate(np.asarray(values, dtype=float))


def rate_fit(ks, vals) -> tuple:
    """Log-log slope of the running-minimum stationarity over 40
    log-spaced checkpoints from k = 100 on.

    ``ks`` are the logged iteration indices and ``vals`` their stationarity
    totals. Returns (slope, intercept) of the least-squares line through
    log10(min-prefix) against log10(k).
    """
    ks = np.asarray(ks, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ks.size < 100:
        raise InsufficientTrace(f"need at least 100 logged rounds, got {ks.size}")
    prefix = min_prefix(vals)
    mask = ks >= 100
    if np.count_nonzero(mask) < 2:
        raise InsufficientTrace("no checkpoints at or beyond k=100")
    ks_f, pf = ks[mask], prefix[mask]
    targets = np.geomspace(ks_f[0], ks_f[-1], 40)
    # idx is non-decreasing, so dropping repeats of the predecessor leaves
    # the distinct entries (np.unique would import numpy.ma on first use)
    idx = np.searchsorted(ks_f, targets).clip(0, ks_f.size - 1)
    idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
    xs = np.log10(ks_f[idx])
    ys = np.log10(np.maximum(pf[idx], 1e-300))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def rate_fit_averaged(curves) -> tuple:
    """Rate fit of the replica-averaged running minimum.

    ``curves`` is a list of (iteration indices, stationarity totals) pairs
    that share their logged rounds; the running minima are averaged before
    the log-log fit (idempotent under the inner min-prefix of ``rate_fit``).
    """
    if not curves:
        raise InsufficientTrace("no curves supplied")
    ks0 = np.asarray(curves[0][0], dtype=float)
    prefixes = []
    for ks, vals in curves:
        ks = np.asarray(ks, dtype=float)
        if ks.shape != ks0.shape or not np.array_equal(ks, ks0):
            raise ValueError("replicas must share their logged rounds")
        prefixes.append(min_prefix(vals))
    return rate_fit(ks0, np.mean(prefixes, axis=0))


def accumulation_weighted_sum(err_sq, dx_sq, r_sq, K: int) -> float:
    """Weighted stability sum up to K:

        sum_{k=1}^{K} ( k^{-1/3} ||E^k||^2 + k^{1/3} ||dx^{k+1}||^2
                        + k^{1/3} ||r^{k+1}||^2 )

    from per-state arrays indexed so that entry s-1 holds the value at state
    s (arrays must reach state K+1 for the shifted terms).
    """
    err_sq = np.asarray(err_sq, dtype=float)
    dx_sq = np.asarray(dx_sq, dtype=float)
    r_sq = np.asarray(r_sq, dtype=float)
    if err_sq.size < K or dx_sq.size < K + 1 or r_sq.size < K + 1:
        raise ValueError(f"need per-state records up to K+1={K + 1}")
    k = np.arange(1, K + 1, dtype=float)
    return float(np.sum(k ** (-1.0 / 3.0) * err_sq[:K]
                        + k ** (1.0 / 3.0) * dx_sq[1:K + 1]
                        + k ** (1.0 / 3.0) * r_sq[1:K + 1]))
