"""Comparison algorithms: uniform-step ADMM and two mixing-based methods.

These isolate the two claims under test. The uniform variant is the same
ADMM round with every step size pinned to the worst (maximum-degree) node
(``hsm_admm.step_degrees``); on a regular graph it is bit-identical to the
heterogeneous run. The proximal decentralized SGD and gradient-tracking
rounds are minimal faithful representatives of the mixing-matrix family
used for communication accounting: one transmits a single vector per
directed neighbor per round, the other two (iterate plus tracker). Mixing
is one product W @ X of the n x n weights with the stacked (n, p) iterates,
and a round's local gradients are one stacked ``batch_gradients`` call over
the round's (n, b) batch rows, which ``batch_rows`` draws from every agent's
own stream in blocks of many rounds, or over every agent's full local data
at batch size 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import Graph
from .problems import CompositeProblem, batch_gradients, draw_batch, prox_h
# not called here; perfbench/tracer.py wraps this module attribute by name
from .problems import stochastic_gradient  # noqa: F401


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


# Indices held by one block of batches: 2**17 int64 values, 1 MiB (256
# rounds at n = 16, batch 32).
BLOCK_INDICES = 2 ** 17


def batch_rows(prob: CompositeProblem, rngs, batch_size: int, rounds: int):
    """Yield the batches of ``rounds`` successive rounds, each an (n,
    batch_size) array whose row i holds stacked sample rows (indices into
    ``prob.stacked_features``) drawn from agent i's own stream ``rngs[i]``.

    Each agent draws a block of B = BLOCK_INDICES // (n * batch_size) rounds
    (at least one) with one ``draw_batch`` call of size B * batch_size,
    which yields the same rows as B draws of ``batch_size`` and leaves its
    generator in the same state, so the per-agent sample sequences are
    those of per-round draws. The draws fill one (B, n, batch_size) int64
    block as they come, agent by agent; the block is released before the
    next one is drawn. A block must span many logged intervals: a smaller
    one maps less memory but puts a draw into more of the timed intervals.
    Nothing is drawn past the last round. ``batch_size = 0`` (exact
    gradients) yields None every round and draws nothing.
    """
    if batch_size == 0:
        yield from repeat(None, rounds)
        return
    per_block = max(1, BLOCK_INDICES // (prob.n * batch_size))
    for first in range(0, rounds, per_block):
        B = min(per_block, rounds - first)
        block = np.empty((B, prob.n, batch_size), dtype=np.int64)
        for i in range(prob.n):
            block[:, i] = draw_batch(prob, i, rngs[i], B * batch_size).reshape(
                B, batch_size)
        yield from block
        del block


@dataclass
class ProxDsgdState:
    """Iterates only, shape (n, p); gradients are drawn per round."""

    x: np.ndarray


def init_dsgd_state(graph: Graph, x0) -> ProxDsgdState:
    return ProxDsgdState(np.tile(np.asarray(x0, dtype=float), (graph.n, 1)))


def prox_dsgd_round(state: ProxDsgdState, prob: CompositeProblem, graph: Graph,
                    W: np.ndarray, k: int, rows, *, step_scale: float = 0.1,
                    ledger=None) -> None:
    """Mix, take a stochastic gradient step over the round's batch ``rows``
    (see ``batch_rows``; None for exact gradients), prox. One vector per
    directed neighbor pair crosses the network per round."""
    gamma = baseline_step(step_scale, k)
    grads = batch_gradients(prob, state.x, rows)
    state.x = prox_h(prob, W @ state.x - gamma * grads, gamma)
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


def init_gt_state(prob: CompositeProblem, graph: Graph, x0, rows) -> ProxGtState:
    """Trackers start at the initial local gradients over the batch ``rows``
    (None for exact gradients), which plants the telescoping identity
    sum_i s_i = sum_i g_i."""
    x = np.tile(np.asarray(x0, dtype=float), (graph.n, 1))
    g0 = batch_gradients(prob, x, rows)
    return ProxGtState(x, g0.copy(), g0)


def prox_gt_round(state: ProxGtState, prob: CompositeProblem, graph: Graph,
                  W: np.ndarray, k: int, rows, *, step_scale: float = 0.1,
                  ledger=None) -> None:
    """Gradient-tracking round: step along the tracker, then refresh it with
    the local gradient increment over the round's batch ``rows`` (None for
    exact gradients). Two vectors (iterate and tracker) cross each directed
    neighbor pair per round."""
    gamma = baseline_step(step_scale, k)
    x = prox_h(prob, W @ state.x - gamma * state.s, gamma)
    grads = batch_gradients(prob, x, rows)
    state.s = W @ state.s + grads - state.g
    state.x, state.g = x, grads
    if ledger is not None:
        ledger.record(4 * graph.m, prob.p)
