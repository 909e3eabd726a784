"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or let the full suite
include it). Heavier experiments share module-scoped fixtures. Criteria
1-4, 11 and 12 run the functions in ``hsmadmm.checks`` that ``hsmadmm
verify`` runs too; this module adds their wall-time bounds.
"""
import dataclasses
import time

import numpy as np
import pytest

from hsmadmm import checks
from hsmadmm.config import RunConfig
from hsmadmm.harness import TOLERANCE, build_graph, build_problem
from hsmadmm.hsm_admm import Schedules
from hsmadmm.metrics import (descent_drift, momentum_recursion_mc_check,
                             rate_fit_averaged, rounds_to_tolerance)
from hsmadmm.problems import _local_samples, empirical_sigma_sq
from hsmadmm.simulator import run


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def _timed(check):
    t0 = time.perf_counter()
    ok, detail = check()
    return ok, detail, time.perf_counter() - t0


# -- 1. spectral identity ---------------------------------------------------

def test_criterion_01_spectral_identity():
    ok, detail, elapsed = _timed(checks.spectral_identity)
    _report(1, "smallest squared singular value is 1 on 20 graphs",
            ok and elapsed < 5.0, f"{detail}, {elapsed:.2f}s")


# -- 2. compact-form equivalence --------------------------------------------

def test_criterion_02_compact_form_equivalence():
    ok, detail, elapsed = _timed(checks.compact_form)
    _report(2, "200 distributed rounds match the dense formulation",
            ok and elapsed < 10.0, f"{detail}, {elapsed:.2f}s")


# -- 3. prox oracle ----------------------------------------------------------

def test_criterion_03_prox_oracle():
    ok, detail, elapsed = _timed(checks.prox_oracle)
    _report(3, "soft threshold matches grid-search minimization",
            ok and elapsed < 5.0, f"{detail}, {elapsed:.2f}s")


# -- 4. gradient oracle ------------------------------------------------------

def test_criterion_04_gradient_oracle():
    ok, detail, elapsed = _timed(checks.gradient_oracle)
    _report(4, "stochastic gradients match finite differences", ok,
            f"{detail}, {elapsed:.2f}s")


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
                    dataset_seed=11, track_lyapunov=False, check_dual_bound=True)
    g, prob = build_graph(cfg), build_problem(cfg)
    H = np.zeros((3, 3))
    c = np.zeros(3)
    for i in range(4):
        A, b = _local_samples(prob, i)
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
    slope, _ = rate_fit_averaged(curves)
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
        drift = np.array([descent_drift(sched, k, rsqs[r, k - 1], sigs[r, k])
                          for r in range(R)])
        D = phis[:, k] - phis[:, k - 1] - drift
        total += 1
        if D.mean() > 3.0 * D.std(ddof=1) / np.sqrt(R):
            fails += 1
    frac = 1.0 - fails / total
    elapsed = time.perf_counter() - t0
    _report(9, "20-replica mean single-step descent bound",
            frac >= 0.99, f"{frac:.2%} of rounds 10..2000 pass, {elapsed:.0f}s")


# -- 10. heterogeneity benefit ------------------------------------------------

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
            hit = rounds_to_tolerance(trace.column("k"), trace.column("stat_total"),
                                      TOLERANCE)
            assert hit is not None, f"{algo} seed {seed} never reached {TOLERANCE}"
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

def test_criterion_11_communication_accounting():
    ok, detail = checks.communication_accounting()
    _report(11, "ledger: 1 vector per directed neighbor (2 for tracking)", ok,
            detail)


# -- 12. determinism -------------------------------------------------------------

def test_criterion_12_determinism():
    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=6, p=4,
                    problem="logistic", samples_per_agent=12, regularizer="l1",
                    l1_weight=0.001, alpha=0.1, noniid=True, batch_size=1,
                    K=200, seed=9)
    ok, detail = checks.determinism(cfg, algos=("hsm_admm", "uniform_admm"))
    _report(12, "byte-identical outputs across reruns and run --jobs counts",
            ok and " 8 traces," in detail, detail)
