"""Comparison algorithms: uniform-step ADMM and two mixing-based methods.

These isolate the two claims under test. The uniform variant is the same
ADMM round with every step size pinned to the worst (maximum-degree) node
(``hsm_admm.step_degrees``); on a regular graph it is bit-identical to the
heterogeneous run. The proximal decentralized SGD and gradient-tracking
rounds are minimal faithful representatives of the mixing-matrix family
used for communication accounting: one transmits a single vector per
directed neighbor per round, the other two (iterate plus tracker). Mixing
is one product W @ X of the n x n weights with the stacked (n, p) iterates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .problems import (CompositeProblem, draw_batch, full_batch, prox_h,
                       stochastic_gradient)


def metropolis_weights(graph: Graph) -> np.ndarray:
    """Symmetric doubly stochastic mixing matrix with w_ij = 1 / (1 + max
    degree of the endpoints) on edges and the leftover mass on the diagonal."""
    W = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(graph.degree[i], graph.degree[j]))
        W[i, j] = w
        W[j, i] = w
    for i in range(graph.n):
        W[i, i] = 1.0 - W[i].sum()
    return W


def baseline_step(step_scale: float, k: int) -> float:
    """Diminishing step for the mixing-based rounds: scale / sqrt(t)."""
    return step_scale / float(k + 1) ** 0.5


def _draw_gradients(prob, xs, rngs, batch_size):
    """Row i: a stochastic gradient at xs[i] from agent i's own stream
    (``batch_size = 0``: the full local data)."""
    grads = np.empty_like(xs)
    for i in range(prob.n):
        if batch_size == 0:
            batch = full_batch(prob, i)
        else:
            batch = draw_batch(prob, i, rngs[i], batch_size)
        grads[i] = stochastic_gradient(prob, i, xs[i], batch)
    return grads


@dataclass
class ProxDsgdState:
    """Iterates only, shape (n, p); gradients are drawn per round."""

    x: np.ndarray

    def xs(self) -> np.ndarray:
        return self.x.copy()


def init_dsgd_state(graph: Graph, x0) -> ProxDsgdState:
    return ProxDsgdState(np.tile(np.asarray(x0, dtype=float), (graph.n, 1)))


def prox_dsgd_round(state: ProxDsgdState, prob: CompositeProblem, graph: Graph,
                    W: np.ndarray, k: int, rngs, *, step_scale: float = 0.1,
                    batch_size: int = 1, ledger=None) -> None:
    """Mix, take a stochastic gradient step, prox. One vector per directed
    neighbor pair crosses the network per round."""
    gamma = baseline_step(step_scale, k)
    grads = _draw_gradients(prob, state.x, rngs, batch_size)
    state.x = prox_h(prob, None, W @ state.x - gamma * grads, gamma)
    if ledger is not None:
        ledger.record(2 * graph.m, prob.p)


@dataclass
class ProxGtState:
    """Iterates, gradient trackers, and the last local gradients, each (n, p)."""

    x: np.ndarray
    s: np.ndarray
    g: np.ndarray

    def xs(self) -> np.ndarray:
        return self.x.copy()

    def trackers(self) -> np.ndarray:
        return self.s.copy()

    def gradients(self) -> np.ndarray:
        return self.g.copy()


def init_gt_state(prob: CompositeProblem, graph: Graph, x0, rngs,
                  batch_size: int = 1) -> ProxGtState:
    """Trackers start at the initial local gradients, which plants the
    telescoping identity sum_i s_i = sum_i g_i."""
    x = np.tile(np.asarray(x0, dtype=float), (graph.n, 1))
    g0 = _draw_gradients(prob, x, rngs, batch_size)
    return ProxGtState(x, g0.copy(), g0)


def prox_gt_round(state: ProxGtState, prob: CompositeProblem, graph: Graph,
                  W: np.ndarray, k: int, rngs, *, step_scale: float = 0.1,
                  batch_size: int = 1, ledger=None) -> None:
    """Gradient-tracking round: step along the tracker, then refresh it with
    the local gradient increment. Two vectors (iterate and tracker) cross
    each directed neighbor pair per round."""
    gamma = baseline_step(step_scale, k)
    x = prox_h(prob, None, W @ state.x - gamma * state.s, gamma)
    grads = _draw_gradients(prob, x, rngs, batch_size)
    state.s = W @ state.s + grads - state.g
    state.x, state.g = x, grads
    if ledger is not None:
        ledger.record(4 * graph.m, prob.p)
