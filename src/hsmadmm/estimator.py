"""Recursive-momentum stochastic gradient estimator on stacked (n, p) arrays.

Row i of the estimate after a step to ``x_new`` with momentum parameter
``a`` is

    v_i <- g_i(x_new_i, batch_i) + (1 - a) * (v_i - g_i(x_old_i, batch_i))

where both gradients are evaluated on the *same* batch, row i of the
round's fresh batch rows; reusing the batch is what cancels the variance of
the correction term. ``a = 1`` discards the history and falls back to a
plain stochastic gradient. Nothing here draws: the refresh passes the
stacked sample rows the caller drew (``baselines.batch_rows``) to the
oracles as they are. The sampled refresh evaluates agent by agent; the
batch-0 refresh is two stacked ``batch_gradients`` calls. The start
estimate is one such call, made by ``hsm_admm.init_network_state``.
"""
from __future__ import annotations

import numpy as np

from .problems import CompositeProblem, batch_gradients, stochastic_gradient
# not called here; perfbench/tracer.py wraps this module attribute by name
from .problems import draw_batch  # noqa: F401


def update_momentum(v, last_x, prob: CompositeProblem, x_new, a: float,
                    rows) -> np.ndarray:
    """One recursive-momentum refresh of every row at the new iterates;
    returns the new (n, p) estimate.

    Agent i evaluates both gradients on the stacked sample rows ``rows[i]``
    of the round's (n, b) batch; ``rows=None`` selects the deterministic
    full-data batch.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError(f"momentum parameter must be in (0, 1], got {a}")
    if rows is None:
        g_new = batch_gradients(prob, x_new, None)
        g_old = batch_gradients(prob, last_x, None)
    else:
        g_new = np.empty_like(v)
        g_old = np.empty_like(v)
        for i in range(prob.n):
            g_new[i] = stochastic_gradient(prob, i, x_new[i], rows[i])
            g_old[i] = stochastic_gradient(prob, i, last_x[i], rows[i])
    return g_new + (1.0 - a) * (v - g_old)
