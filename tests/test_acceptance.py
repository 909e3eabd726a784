"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or let the full suite
include it). Heavier experiments share module-scoped fixtures.
"""
import dataclasses
import time

import numpy as np
import pytest

from hsmadmm.config import RunConfig
from hsmadmm.graph import ConstraintOps, build_topology, smallest_singular_sq_A
from hsmadmm.harness import (build_graph, build_problem, emit_plots, main,
                             run_outputs)
from hsmadmm.hsm_admm import (Schedules, dense_round_reference, hsm_admm_round,
                              init_network_state)
from hsmadmm.metrics import (descent_drift, make_lyapunov_constants,
                             momentum_recursion_mc_check, rate_fit_averaged)
from hsmadmm.problems import (draw_batch, empirical_sigma_sq, full_batch,
                              full_gradient, make_problem, prox_h,
                              sampled_loss, stochastic_gradient)
from hsmadmm.simulator import run
from tests.conftest import agent_rngs


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name} ({detail})"


# -- 1. spectral identity ---------------------------------------------------

def test_criterion_01_spectral_identity():
    t0 = time.perf_counter()
    graphs = [build_topology("ring", n) for n in (2, 3, 5, 8, 13, 20)]
    graphs += [build_topology("star", n) for n in (3, 6, 12, 20)]
    graphs += [build_topology("hub_leaf", n, hubs=h)
               for n, h in ((4, 1), (9, 2), (16, 1), (20, 3))]
    graphs += [build_topology("random_connected", n, seed=s, prob=0.35)
               for n, s in ((5, 0), (8, 1), (11, 2), (14, 3), (17, 4), (20, 5))]
    assert len(graphs) == 20
    dev = max(abs(smallest_singular_sq_A(ConstraintOps(g)) - 1.0) for g in graphs)
    elapsed = time.perf_counter() - t0
    _report(1, "smallest squared singular value is 1 on 20 graphs",
            dev <= 1e-10 and elapsed < 5.0,
            f"max deviation {dev:.2e}, {elapsed:.2f}s")


# -- 2. compact-form equivalence --------------------------------------------

def test_criterion_02_compact_form_equivalence():
    t0 = time.perf_counter()
    g = build_topology("random_connected", 6, seed=3, prob=0.5, p=3)
    prob = make_problem("logistic", 6, 3, 12, 5, regularizer="l1",
                        l1_weight=0.01, alpha=0.1, noniid=True)
    sched = Schedules()
    ops = ConstraintOps(g)
    rngs = agent_rngs(17, 6)
    state = init_network_state(prob, g, np.zeros(3), 8, rngs)
    worst = 0.0
    for k in range(200):
        x, y = state.xs().ravel(), state.ys().ravel()
        lam, v = state.duals_vector(), state.vs().ravel()
        y_ref, x_ref, lam_ref = dense_round_reference(ops, prob, sched, k, x, y,
                                                      lam, v)
        hsm_admm_round(state, prob, ops, sched, k, rngs)
        worst = max(worst,
                    float(np.max(np.abs(state.ys().ravel() - y_ref))),
                    float(np.max(np.abs(state.xs().ravel() - x_ref))),
                    float(np.max(np.abs(state.duals_vector() - lam_ref))))
    elapsed = time.perf_counter() - t0
    _report(2, "200 distributed rounds match the dense formulation",
            worst <= 1e-10 and elapsed < 10.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


# -- 3. prox oracle ----------------------------------------------------------

def test_criterion_03_prox_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    grid = np.arange(-4.0, 4.0 + 5e-5, 1e-4)
    worst = 0.0
    for _ in range(100):
        v = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        prob = make_problem("least_squares", 2, 1, 2, 0, regularizer="l1",
                            l1_weight=lam)
        got = prox_h(prob, 0, np.array([v]), c)[0]
        want = grid[np.argmin(lam * np.abs(grid) + (grid - v) ** 2 / (2 * c))]
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _report(3, "soft threshold matches grid-search minimization",
            worst <= 2e-4 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


# -- 4. gradient oracle ------------------------------------------------------

def test_criterion_04_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(57)
    worst = 0.0
    exact = True
    for kind in ("least_squares", "logistic", "nonconvex_robust"):
        prob = make_problem(kind, 2, 5, 10, 4, alpha=0.25)
        for _ in range(50):
            x = rng.standard_normal(5)
            batch = draw_batch(prob, 0, rng, int(rng.integers(1, 6)))
            grad = stochastic_gradient(prob, 0, x, batch)
            fd = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = 1e-6
                fd[j] = (sampled_loss(prob, 0, x + e, batch)
                         - sampled_loss(prob, 0, x - e, batch)) / 2e-6
            worst = max(worst, float(np.linalg.norm(fd - grad)
                                     / max(1.0, np.linalg.norm(fd))))
        for _ in range(5):
            x = rng.standard_normal(5)
            full = stochastic_gradient(prob, 0, x, full_batch(prob, 0))
            exact = exact and np.array_equal(full, full_gradient(prob, 0, x))
    elapsed = time.perf_counter() - t0
    _report(4, "stochastic gradients match finite differences",
            worst <= 1e-5 and exact,
            f"max rel deviation {worst:.2e}, full batch exact: {exact}, "
            f"{elapsed:.2f}s")


# -- 5. momentum variance recursion ------------------------------------------

def test_criterion_05_variance_recursion():
    t0 = time.perf_counter()
    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=8, p=5,
                    problem="logistic", samples_per_agent=40, regularizer="l1",
                    l1_weight=1e-3, alpha=0.1, noniid=True, batch_size=1,
                    m0=16, K=60, metric_every=1, track_lyapunov=False,
                    dataset_seed=3, seed=2)
    g, prob = build_graph(cfg), build_problem(cfg)
    sched = Schedules(cfg.c_rho, cfg.c_a, cfg.c_eta)
    snaps = {}
    run(cfg, prob, g, metrics_sink=lambda s, row, state: snaps.update(
        {s: (state.xs(), state.vs())}))
    rng = np.random.default_rng(99)
    results = []
    for k in range(5, 55, 5):
        xs_prev, vs_prev = snaps[k]
        xs_new, _ = snaps[k + 1]
        results.append(momentum_recursion_mc_check(
            prob, xs_prev, xs_new, vs_prev, sched.a(k), 5000, rng))
    ok = all(r["ok"] for r in results)
    margin = min((r["rhs"] + 4 * r["se"] - r["lhs"]) for r in results)
    elapsed = time.perf_counter() - t0
    _report(5, "variance recursion holds at 10 frozen states (5000 draws)",
            ok and elapsed < 60.0,
            f"min slack {margin:.3e}, {elapsed:.1f}s")


# -- 6 & 8: deterministic quadratic run --------------------------------------

@pytest.fixture(scope="module")
def quadratic_run():
    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=4, p=3,
                    problem="least_squares", samples_per_agent=25,
                    regularizer="none", batch_size=0, m0=1, K=5000, seed=0,
                    dataset_seed=11, track_lyapunov=False, check_dual_bound=True,
                    theta=1.0)
    g, prob = build_graph(cfg), build_problem(cfg)
    H = np.zeros((3, 3))
    c = np.zeros(3)
    for i in range(4):
        A, b = prob.features[i], prob.labels[i]
        H += A.T @ A / A.shape[0]
        c += A.T @ b / A.shape[0]
    xstar = np.linalg.solve(H, c)
    captured = {}

    def sink(s, row, state):
        if s == cfg.K:
            captured["xs"] = state.xs()

    t0 = time.perf_counter()
    trace = run(cfg, prob, g, metrics_sink=sink)
    elapsed = time.perf_counter() - t0
    return {"trace": trace, "xs": captured["xs"], "xstar": xstar,
            "elapsed": elapsed, "K": cfg.K}


def test_criterion_06_quadratic_exact_convergence(quadratic_run):
    err = max(np.linalg.norm(x - quadratic_run["xstar"])
              for x in quadratic_run["xs"])
    _report(6, "noise-free quadratic reaches the closed-form solution",
            err <= 1e-4 and quadratic_run["elapsed"] < 30.0,
            f"max agent error {err:.2e} after {quadratic_run['K']} rounds, "
            f"{quadratic_run['elapsed']:.1f}s")


def test_criterion_08_dual_step_bound_no_violations(quadratic_run):
    count = len(quadratic_run["trace"].violations)
    _report(8, "dual-step bound has zero violations over 5000 rounds",
            count == 0, f"{count} violations logged")


# -- 7. rate fit --------------------------------------------------------------

def test_criterion_07_rate():
    t0 = time.perf_counter()
    base = RunConfig(algorithm="hsm_admm", topology="ring", n=8, p=20,
                     problem="logistic", samples_per_agent=50, regularizer="l1",
                     l1_weight=1e-4, alpha=0.2, noniid=True, batch_size=1,
                     m0=32, K=20000, dataset_seed=7, track_lyapunov=False)
    g, prob = build_graph(base), build_problem(base)
    curves = []
    for seed in range(5):
        trace = run(dataclasses.replace(base, seed=seed), prob, g)
        curves.append((trace.column("k"), trace.column("stat_total")))
    slope, _ = rate_fit_averaged(curves, min_k=100)
    elapsed = time.perf_counter() - t0
    _report(7, "seed-averaged min-prefix stationarity decays fast enough",
            slope <= -0.5 and elapsed < 600.0,
            f"log-log slope {slope:.3f} over k in [1e2, 2e4], {elapsed:.0f}s")


# -- 9. merit descent ---------------------------------------------------------

def test_criterion_09_merit_descent():
    t0 = time.perf_counter()
    K, R = 2001, 20
    base = RunConfig(algorithm="hsm_admm", topology="ring", n=4, p=2,
                     problem="least_squares", samples_per_agent=30,
                     regularizer="none", alpha=0.0, batch_size=1, m0=32,
                     K=K, dataset_seed=5, metric_every=1, track_lyapunov=True)
    g, prob = build_graph(base), build_problem(base)
    sched = Schedules(base.c_rho, base.c_a, base.c_eta)
    consts = make_lyapunov_constants(g, sched, prob.smoothness)
    phis, rsqs, sigs = [], [], []
    for r in range(R):
        cfg = dataclasses.replace(base, seed=100 + r)
        sig = {}
        trace = run(cfg, prob, g, metrics_sink=lambda s, row, state, sig=sig:
                    sig.update({s: empirical_sigma_sq(prob, state.xs())}))
        phis.append(trace.column("phi"))
        rsqs.append(trace.column("res_combined") ** 2)
        sigs.append(np.array([sig[int(k)] for k in trace.column("k")]))
    phis, rsqs, sigs = np.array(phis), np.array(rsqs), np.array(sigs)
    fails = 0
    total = 0
    for k in range(10, K):
        drift = np.array([descent_drift(sched, consts, k, rsqs[r, k - 1],
                                        sigs[r, k]) for r in range(R)])
        D = phis[:, k] - phis[:, k - 1] - drift
        total += 1
        if D.mean() > 3.0 * D.std(ddof=1) / np.sqrt(R):
            fails += 1
    frac = 1.0 - fails / total
    elapsed = time.perf_counter() - t0
    _report(9, "20-replica mean single-step descent bound",
            frac >= 0.99, f"{frac:.2%} of rounds 10..2000 pass, {elapsed:.0f}s")


# -- 10. heterogeneity benefit ------------------------------------------------

def _rounds_to_threshold(trace, tol):
    ks = trace.column("k")
    st = trace.column("stat_total")
    hit = np.where(st <= tol)[0]
    return int(ks[hit[0]]) if hit.size else None


def test_criterion_10_heterogeneity_benefit():
    t0 = time.perf_counter()
    base = RunConfig(topology="hub_leaf", n=16, hubs=1, p=3,
                     problem="least_squares", samples_per_agent=20,
                     regularizer="none", batch_size=0, m0=1, K=5000,
                     metric_every=5, track_lyapunov=False)
    rounds = {"hsm_admm": [], "uniform_admm": []}
    for seed in range(5):
        for algo in rounds:
            cfg = dataclasses.replace(base, algorithm=algo, seed=seed,
                                      dataset_seed=20 + seed)
            trace = run(cfg, build_problem(cfg), build_graph(cfg))
            hit = _rounds_to_threshold(trace, 1e-3)
            assert hit is not None, f"{algo} seed {seed} never reached 1e-3"
            rounds[algo].append(hit)
    hub_ok = all(h <= u for h, u in zip(rounds["hsm_admm"],
                                        rounds["uniform_admm"]))

    ring_cfg = dataclasses.replace(base, topology="ring", K=100, metric_every=1,
                                   batch_size=1, m0=8)
    prob, g = build_problem(ring_cfg), build_graph(ring_cfg)
    t_h = run(dataclasses.replace(ring_cfg, algorithm="hsm_admm"), prob, g)
    t_u = run(dataclasses.replace(ring_cfg, algorithm="uniform_admm"), prob, g)
    ring_rows_h = np.array([r[:-1] for r in t_h.rows], dtype=float)
    ring_rows_u = np.array([r[:-1] for r in t_u.rows], dtype=float)
    ring_ok = np.array_equal(ring_rows_h, ring_rows_u, equal_nan=True)
    elapsed = time.perf_counter() - t0
    _report(10, "degree-scaled steps beat uniform on hub-leaf, tie on ring",
            hub_ok and ring_ok,
            f"hub-leaf rounds {rounds['hsm_admm']} vs {rounds['uniform_admm']}, "
            f"ring identical: {ring_ok}, {elapsed:.0f}s")


# -- 11. communication accounting ----------------------------------------------

def test_criterion_11_communication_accounting(tmp_path):
    K = 50
    base = RunConfig(topology="ring", n=8, p=5, problem="logistic",
                     samples_per_agent=10, regularizer="l1", l1_weight=1e-3,
                     alpha=0.1, batch_size=1, K=K, track_lyapunov=False)
    g = build_graph(base)
    prob = build_problem(base)
    directed_pairs = 2 * g.m
    traces = {}
    totals = {}
    for algo in ("hsm_admm", "prox_gt"):
        cfg = dataclasses.replace(base, algorithm=algo)
        trace = run(cfg, prob, g)
        totals[algo] = trace.meta["vector_messages"]
        traces[algo] = {name: trace.column(name) for name in trace.header}
    counts_ok = (totals["hsm_admm"] == K * directed_pairs
                 and totals["prox_gt"] == 2 * K * directed_pairs)
    meta = emit_plots(traces, tmp_path)
    rng = meta["stationarity_vs_scalars.svg"]
    ratio = rng["prox_gt"][1] / rng["hsm_admm"][1]
    plot_ok = abs(ratio - 2.0) <= 1e-12
    _report(11, "ledger: 1 vector per directed neighbor (2 for tracking)",
            counts_ok and plot_ok,
            f"totals {totals}, plot abscissa ratio {ratio:.3f}")


# -- 12. determinism -------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("\n".join([
        "algorithm = hsm_admm", "topology = ring", "n = 6", "p = 4",
        "problem = logistic", "samples_per_agent = 12", "regularizer = l1",
        "l1_weight = 0.001", "alpha = 0.1", "noniid = true", "batch_size = 1",
        "K = 200", "seed = 9", ""]))
    outs = {}
    for tag, jobs in (("a", 1), ("b", 1), ("j2", 2)):
        out = tmp_path / tag
        assert main(["sweep", "--config", str(cfg_path), "--topologies", "ring,star",
                     "--algos", "hsm_admm,uniform_admm", "--seeds", "2",
                     "--jobs", str(jobs), "--out", str(out)]) == 0
        outs[tag] = run_outputs(out)

    traces = sum(name.endswith("trace.csv") for name in outs["a"])
    reruns = outs["a"] == outs["b"]
    jobs = outs["a"] == outs["j2"]
    _report(12, "byte-identical outputs across reruns and sweep job counts",
            traces == 8 and reruns and jobs,
            f"{traces} traces, rerun: {reruns}, --jobs 1 vs 2: {jobs}")
