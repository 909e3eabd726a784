"""Degree-scaled stochastic momentum ADMM: one synchronous round on stacked
arrays.

The state is the stacked formula's (x, y, lam, v): agent i holds row i of
the (n, p) arrays x, y and v (gradient estimate), and the multiplier lam
is one (m + n, p) array in the row order of ``graph.residual``, the edge
duals in ``graph.edges`` order (edge e = (i, j), i < j) and then the
per-agent splitting duals. With penalty rho, momentum parameter a and
steps eta = diag(Q), one round is

    y      <- prox of the regularizer at (x - lam[m:] / rho), scale 1/rho
    x      <- x - Q^{-1} (v - A^T lam + rho A^T (A x + B y))
    exchange the new x with the neighbors (one vector per directed pair)
    lam    <- lam - rho (A x + B y)
    v      <- momentum refresh at the new x

where A stacks the edge differences x_i - x_j over the identity and B is
the negated identity below zeros: ``graph.residual`` is A x + B y and
``graph.apply_Mt`` the transpose of A's edge block. Agent i's row of the x
step reads only its own row and its neighbors' previous-round rows
(synchronous Jacobi), and an edge dual enters its low endpoint with a minus
sign and its high endpoint with a plus sign.

Step sizes scale with the local degree, eta_i = c_eta * (d_i + 1) * t^{1/3},
so no agent waits on the global maximum degree. ``step_degrees`` picks the
degree vector d (local, or the maximum for the uniform-step baseline); the
round, the dense reference and the analysis constants in ``metrics`` all
take that vector.
Schedules evaluate at t = k + 1: the k^{1/3} law would make the round-0
penalty zero and the prox scale undefined, and the one-shift is the minimal
repair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import update_momentum
from .graph import Graph, apply_Mt, dense_A, dense_B, residual
from .problems import CompositeProblem, batch_gradients, prox_h


@dataclass(frozen=True)
class Schedules:
    """Polynomial schedules: penalty and steps grow as t^{1/3}, the momentum
    parameter decays as t^{-2/3} clamped into (0, 1]."""

    c_rho: float = 1.0
    c_a: float = 1.0
    c_eta: float = 2.0

    def __post_init__(self):
        if self.c_rho <= 0 or self.c_a <= 0 or self.c_eta <= 0:
            raise ValueError("schedule constants must be positive")

    def rho(self, k: int) -> float:
        return self.c_rho * float(k + 1) ** (1.0 / 3.0)

    def a(self, k: int) -> float:
        return min(1.0, self.c_a * float(k + 1) ** (-2.0 / 3.0))

    def eta(self, k: int, degree):
        """Step size at round k for a degree or an array of degrees."""
        return self.c_eta * (degree + 1) * float(k + 1) ** (1.0 / 3.0)


def step_degrees(graph: Graph, uniform: bool = False) -> np.ndarray:
    """Per-agent degree that sets the step size: the local degree, or with
    ``uniform=True`` the global maximum degree for every agent (the
    uniform-step baseline)."""
    if uniform:
        return np.full(graph.n, graph.degree.max())
    return graph.degree


@dataclass
class NetworkState:
    """Stacked round state: (n, p) arrays x, y and v (refreshed at the
    current x), and the (m + n, p) multiplier lam in ``graph.residual``'s
    row order."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    v: np.ndarray

    def xs(self) -> np.ndarray:
        return self.x.copy()

    def ys(self) -> np.ndarray:
        return self.y.copy()

    def vs(self) -> np.ndarray:
        return self.v.copy()

    def duals_vector(self) -> np.ndarray:
        """The multiplier as the dense formula's vector: a view of lam, the
        edge duals in edge-list order, then the per-agent splitting duals."""
        return self.lam.ravel()


def init_network_state(prob: CompositeProblem, graph: Graph, x0,
                       rows) -> NetworkState:
    """Identical primal start across agents, y = x, zero duals, momentum from
    the batch ``rows`` (None for the exact gradient in deterministic mode)."""
    x = np.tile(np.asarray(x0, dtype=float), (graph.n, 1))
    lam = np.zeros((graph.m + graph.n, x.shape[1]))
    return NetworkState(x=x, y=x.copy(), lam=lam, v=batch_gradients(prob, x, rows))


def step_y(state: NetworkState, prob: CompositeProblem, graph: Graph,
           rho: float) -> np.ndarray:
    """Local-only auxiliary update: prox at x - lam[m:] / rho (the splitting
    duals) with scale 1/rho."""
    return prox_h(prob, state.x - state.lam[graph.m:] / rho, 1.0 / rho)


def step_x(state: NetworkState, graph: Graph, y_new, rho: float,
           eta) -> np.ndarray:
    """Linearized primal step x - Q^{-1} (v - A^T lam + rho A^T (A x + B y))
    with the per-agent steps ``eta``, shape (n,)."""
    m, lam = graph.m, state.lam
    r = rho * residual(graph, state.x, y_new)
    grad = state.v - lam[m:] + r[m:] + apply_Mt(graph, r[:m] - lam[:m])
    return state.x - grad / eta[:, None]


def step_duals(state: NetworkState, graph: Graph, rho: float) -> None:
    """Dual ascent on the committed round state, lam - rho (A x + B y)."""
    state.lam = state.lam - rho * residual(graph, state.x, state.y)


def hsm_admm_round(state: NetworkState, prob: CompositeProblem, graph: Graph,
                   sched: Schedules, k: int, rows, *, degrees,
                   ledger=None) -> None:
    """Execute round k in place: y, x against the round-k state, exchange,
    duals, momentum refresh over the round's batch ``rows`` (see
    ``baselines.batch_rows``; None for exact gradients).

    ``degrees`` sets the step sizes (``step_degrees``). Exactly one x vector
    crosses each directed neighbor pair per round; the ledger records the
    exchange.
    """
    rho = sched.rho(k)
    eta = sched.eta(k, degrees)
    x_prev = state.x
    y_new = step_y(state, prob, graph, rho)
    state.x, state.y = step_x(state, graph, y_new, rho, eta), y_new
    if ledger is not None:
        ledger.record(2 * graph.m, prob.p)
    step_duals(state, graph, rho)
    state.v = update_momentum(state.v, x_prev, prob, state.x, sched.a(k), rows)


def dense_round_reference(graph: Graph, prob: CompositeProblem,
                          sched: Schedules, k: int, x, y, lam, v, *,
                          degrees) -> tuple:
    """One round predicted by the stacked dense formulation.

    Returns (y_next, x_next, lam_next) computed with explicit matrices:
    the prox of the stacked vector, then

        x_next   = x - Q^{-1} (v - A^T lam + rho A^T (A x + B y_next))
        lam_next = lam - rho (A x_next + B y_next)

    with Q the block-diagonal step matrix from ``degrees``. This is the
    verification oracle for the neighbor-sum implementation.
    """
    p = prob.p
    rho = sched.rho(k)
    A = dense_A(graph, p)
    B = dense_B(graph, p)
    Q_diag = np.repeat(sched.eta(k, degrees), p)

    y_next = prox_h(prob, x - lam[graph.m * p:] / rho, 1.0 / rho)
    grad_term = v - A.T @ lam + rho * (A.T @ (A @ x + B @ y_next))
    x_next = x - grad_term / Q_diag
    lam_next = lam - rho * (A @ x_next + B @ y_next)
    return y_next, x_next, lam_next

