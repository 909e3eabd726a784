"""The checks shared by ``hsmadmm verify`` and the acceptance suite.

Each check returns ``(ok, detail)``: whether the property holds, and one
line on what was measured. ``tests/test_acceptance.py`` calls the criterion
checks and adds its wall-time bounds; ``VERIFY`` lists what the ``verify``
subcommand runs, in order. Every check runs at one fixed size, except
``determinism``, which takes the configuration whose grid it repeats.
"""
from __future__ import annotations

import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np

from .baselines import batch_rows, init_gt_state, metropolis_weights, prox_gt_round
from .config import RunConfig, write_config
from .graph import (Graph, apply_Mt, build_topology, dense_A, dense_AtA, dense_B,
                    incidence_matrix, laplacian, residual, smallest_singular_sq_A)
from .harness import build_graph, build_problem, emit_plots, main, run_outputs
from .hsm_admm import (Schedules, dense_round_reference, hsm_admm_round,
                       init_network_state, step_degrees)
from .problems import (batch_gradients, draw_batch, full_gradient, make_problem,
                       prox_h, sampled_loss, stochastic_gradient)
from .simulator import agent_streams, run


def spectral_identity():
    """Criterion 1: the smallest squared singular value of A is 1 on 20
    rings, stars, hub-leaf and random connected graphs."""
    graphs = [build_topology("ring", n) for n in (2, 3, 5, 8, 13, 20)]
    graphs += [build_topology("star", n) for n in (3, 6, 12, 20)]
    graphs += [build_topology("hub_leaf", n, hubs=h)
               for n, h in ((4, 1), (9, 2), (16, 1), (20, 3))]
    graphs += [build_topology("random_connected", n, seed=s, prob=0.35)
               for n, s in ((5, 0), (8, 1), (11, 2), (14, 3), (17, 4), (20, 5))]
    dev = max(abs(smallest_singular_sq_A(g) - 1.0) for g in graphs)
    return len(graphs) == 20 and dev <= 1e-10, f"max deviation {dev:.2e}"


def block_vs_dense(g: Graph, p: int, rng) -> float:
    """Largest relative deviation of the block operators from the dense
    matrices at random (n, p) and (m, p) arrays."""
    m = g.m
    X, Y = rng.standard_normal((2, g.n, p))
    U = rng.standard_normal((m, p))
    A, B = dense_A(g, p), dense_B(g, p)
    r = residual(g, X, 0)  # A x
    pairs = ((r.ravel(), A @ X.ravel()),
             (apply_Mt(g, U).ravel(), A[: m * p].T @ U.ravel()),
             (residual(g, X, Y).ravel(), A @ X.ravel() + B @ Y.ravel()),
             ((apply_Mt(g, r[:m]) + r[m:]).ravel(), dense_AtA(g, p) @ X.ravel()))
    return max(float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))
               for got, want in pairs)


def incidence_laplacian():
    """M^T M is the Laplacian with the degrees on its diagonal, and the
    block operators agree with the dense A and B."""
    for kind, n in (("ring", 7), ("star", 6), ("hub_leaf", 8)):
        g = build_topology(kind, n)
        M = incidence_matrix(g)
        if not np.allclose(M.T @ M, laplacian(g), atol=1e-12):
            return False, f"incidence mismatch on {kind}"
        if not np.array_equal(np.diag(M.T @ M).astype(int), g.degree):
            return False, f"degree mismatch on {kind}"
    rng = np.random.default_rng(0)
    worst = max(block_vs_dense(build_topology(
        "random_connected", 8, seed=seed, prob=0.4), 2, rng)
        for seed in range(3) for _ in range(10))
    return worst <= 1e-12, ("incidence product equals Laplacian, block vs "
                            f"dense operators max rel deviation {worst:.2e}")


def compact_form():
    """Criterion 2: 200 stacked rounds match the dense formulation."""
    g = build_topology("random_connected", 6, seed=3, prob=0.5)
    prob = make_problem("logistic", 6, 3, 12, 5, regularizer="l1",
                        l1_weight=0.01, alpha=0.1, noniid=True)
    sched = Schedules()
    degrees = step_degrees(g)
    rngs = agent_streams(17, 6)
    state = init_network_state(prob, g, np.zeros(3),
                               next(batch_rows(prob, rngs, 8, 1)))
    worst = 0.0
    for k, rows in enumerate(batch_rows(prob, rngs, 1, 200)):
        x, y = state.xs().ravel(), state.ys().ravel()
        lam, v = state.duals_vector(), state.vs().ravel()
        y_ref, x_ref, lam_ref = dense_round_reference(g, prob, sched, k, x, y,
                                                      lam, v, degrees=degrees)
        hsm_admm_round(state, prob, g, sched, k, rows, degrees=degrees)
        worst = max(worst,
                    float(np.max(np.abs(state.ys().ravel() - y_ref))),
                    float(np.max(np.abs(state.xs().ravel() - x_ref))),
                    float(np.max(np.abs(state.duals_vector() - lam_ref))))
    return worst <= 1e-10, f"max deviation {worst:.2e}"


def prox_oracle():
    """Criterion 3: the l1 prox matches grid-search minimization."""
    rng = np.random.default_rng(31)
    grid = np.arange(-4.0, 4.0 + 5e-5, 1e-4)
    worst = 0.0
    for _ in range(100):
        v = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        prob = make_problem("least_squares", 2, 1, 2, 0, regularizer="l1",
                            l1_weight=lam)
        got = prox_h(prob, np.array([v]), c)[0]
        want = grid[np.argmin(lam * np.abs(grid) + (grid - v) ** 2 / (2 * c))]
        worst = max(worst, abs(got - want))
    return worst <= 2e-4, f"max deviation {worst:.2e}"


def gradient_oracle():
    """Criterion 4: sampled gradients match central finite differences, and
    full batches, per agent and stacked, give the exact gradient bit for bit,
    on every agent, so that a local index taken for a stacked row shows."""
    rng = np.random.default_rng(57)
    worst = 0.0
    exact = True
    for kind in ("least_squares", "logistic", "nonconvex_robust"):
        prob = make_problem(kind, 2, 5, 10, 4, alpha=0.25)
        for i in [0, 1] * 25:
            x = rng.standard_normal(5)
            batch = draw_batch(prob, i, rng, int(rng.integers(1, 6)))
            grad = stochastic_gradient(prob, i, x, batch)
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = 1e-6
                fd[j] = (sampled_loss(prob, i, x + e, batch)
                         - sampled_loss(prob, i, x - e, batch)) / 2e-6
            worst = max(worst, float(np.linalg.norm(fd - grad)
                                     / max(1.0, np.linalg.norm(fd))))
        for _ in range(5):
            x = rng.standard_normal(5)
            exact = exact and all(np.array_equal(stochastic_gradient(
                prob, i, x, prob.offsets[i] + np.arange(prob.local_size(i))),
                full_gradient(prob, i, x)) for i in range(prob.n))
            X = np.stack([x, -x])
            exact = exact and all(np.array_equal(g, full_gradient(prob, i, X[i]))
                                  for i, g in enumerate(batch_gradients(prob, X, None)))
    return (worst <= 1e-5 and exact,
            f"max rel deviation {worst:.2e}, full batch exact: {exact}")


def communication_accounting():
    """Criterion 11: the ledger counts one vector per directed neighbor pair
    per round (two for gradient tracking), and the communication plot's
    abscissa shows the same factor of 2."""
    K = 50
    base = RunConfig(topology="ring", n=8, p=5, problem="logistic",
                     samples_per_agent=10, regularizer="l1", l1_weight=1e-3,
                     alpha=0.1, batch_size=1, K=K, track_lyapunov=False)
    g, prob = build_graph(base), build_problem(base)
    traces, totals = {}, {}
    for algo in ("hsm_admm", "prox_gt"):
        trace = run(dataclasses.replace(base, algorithm=algo), prob, g)
        totals[algo] = trace.meta["vector_messages"]
        traces[algo] = {name: trace.column(name) for name in trace.header}
    counts_ok = (totals["hsm_admm"] == K * 2 * g.m
                 and totals["prox_gt"] == 2 * K * 2 * g.m)
    with tempfile.TemporaryDirectory() as tmp:
        ranges = emit_plots(traces, tmp)["stationarity_vs_scalars.svg"]
    ratio = ranges["prox_gt"][1] / ranges["hsm_admm"][1]
    return (counts_ok and abs(ratio - 2.0) <= 1e-12,
            f"totals {totals}, plot abscissa ratio {ratio:.3f}")


def determinism(cfg: RunConfig, algos=("hsm_admm", "prox_gt")):
    """Three ``run --grid`` runs of ``cfg`` with 2 replicas over ring and
    star (``--jobs`` 1, 1 and 2) write identical outputs, sweep.csv
    included, one trace per cell and seed."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base.cfg"
        write_config(dataclasses.replace(cfg, replicas=2), base)
        outputs = []
        for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
            out = Path(tmp) / tag
            rc = main(["run", "--config", str(base), "--grid", "topology=ring,star",
                       "--grid", "algorithm=" + ",".join(algos),
                       "--jobs", str(jobs), "--out", str(out)])
            if rc != 0:
                return False, f"run --jobs {jobs} exited {rc}"
            outputs.append(run_outputs(out))
    traces = sum(name.endswith("trace.csv") for name in outputs[0])
    reruns = outputs[0] == outputs[1]
    jobs = outputs[0] == outputs[2]
    return (traces == 2 * len(algos) * 2 and reruns and jobs,
            f"{len(outputs[0])} files, {traces} traces, rerun: {reruns}, "
            f"--jobs 1 vs 2: {jobs}")


def mixing_tracking():
    """Metropolis weights are symmetric and stochastic, and gradient
    tracking keeps the trackers' sum equal to the gradients' sum."""
    g = build_topology("ring", 6)
    W = metropolis_weights(g)
    sym = float(np.max(np.abs(W - W.T)))
    stoch = float(np.max(np.abs(W.sum(axis=1) - 1.0)))
    prob = make_problem("least_squares", 6, 3, 5, 4)
    rows = batch_rows(prob, agent_streams(3, 6), 1, 31)
    state = init_gt_state(prob, g, np.zeros(3), next(rows))
    worst = 0.0
    for k in range(30):
        prox_gt_round(state, prob, g, W, k, next(rows))
        gap = np.linalg.norm(state.s.sum(axis=0) - state.g.sum(axis=0))
        worst = max(worst, float(gap))
    ok = sym <= 1e-15 and stoch <= 1e-12 and worst <= 1e-10
    return ok, f"tracking gap {worst:.2e}"


VERIFY_SWEEP = RunConfig(n=5, p=4, K=40, samples_per_agent=6, regularizer="l1",
                         l1_weight=0.01, track_lyapunov=False)

VERIFY = [
    ("spectral identity", spectral_identity),
    ("incidence / Laplacian", incidence_laplacian),
    ("prox vs grid search", prox_oracle),
    ("gradients vs finite differences", gradient_oracle),
    ("distributed vs dense rounds", compact_form),
    ("message ledger counts", communication_accounting),
    ("determinism", functools.partial(determinism, VERIFY_SWEEP)),
    ("mixing and gradient tracking", mixing_tracking),
]
