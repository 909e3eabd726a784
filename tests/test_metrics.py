import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmadmm.graph import Graph, build_topology, dense_AtA, residual
from hsmadmm.hsm_admm import Schedules, step_degrees
from hsmadmm.metrics import (C_ERR, C_GAMMA, THETA, DualBoundChecker,
                             InsufficientTrace,
                             accumulation_weighted_sum, augmented_lagrangian,
                             constants_feasibility, descent_drift,
                             gradient_error, lyapunov, make_lyapunov_constants,
                             min_prefix, rate_fit, rate_fit_averaged, residuals,
                             stationarity_measure, step_matrix_base)
from hsmadmm.problems import (CompositeProblem, _local_samples, full_gradient,
                              global_mean_gradient, make_problem,
                              smooth_value, soft_threshold)


def step_analysis(g, sched, L, uniform=False):
    """S, ||S||_2 and c_beta, as ``simulator.run`` builds them once per run."""
    S = step_matrix_base(g, sched, degrees=step_degrees(g, uniform))
    s_norm = float(np.linalg.norm(S, 2))
    return S, s_norm, make_lyapunov_constants(s_norm, L, sched.c_rho)


def quad_two_agents(b1, b2):
    # scalar least squares: grad_i(x) = x - b_i
    return CompositeProblem("least_squares", np.ones((2, 1)), np.array([b1, b2]),
                            [1, 1])


def test_stationarity_zero_at_minimizer():
    prob = quad_two_agents(1.0, 3.0)          # mean gradient zero at x = 2
    rep = stationarity_measure(prob, np.array([[2.0], [2.0]]))
    assert rep.total == 0.0


def test_stationarity_consensus_with_gradient():
    prob = quad_two_agents(0.0, 0.0)           # mean gradient at x: x
    rep = stationarity_measure(prob, np.array([[1.0], [1.0]]))
    assert rep.consensus_gap == 0.0
    assert rep.prox_gradient_gap == pytest.approx(1.0)  # ||g||^2 at x=1


def test_stationarity_hand_case():
    # x = (1, 3), xbar = 2, mean gradient 0.5, h = none
    prob = quad_two_agents(1.0, 2.0)
    assert global_mean_gradient(prob, np.array([2.0]))[0] == pytest.approx(0.5)
    rep = stationarity_measure(prob, np.array([[1.0], [3.0]]))
    assert rep.consensus_gap == pytest.approx(2.0)
    assert rep.prox_gradient_gap == pytest.approx(0.25)
    assert rep.total == pytest.approx(2.25)


def test_stationarity_aggregate_l1_weight():
    prob = make_problem("least_squares", 3, 2, 5, 0, regularizer="l1",
                        l1_weight=0.2)
    xs = np.array([[0.5, -1.0], [0.1, 0.2], [0.0, 0.4]])
    xbar = xs.mean(axis=0)
    g = global_mean_gradient(prob, xbar)
    want = float(np.sum((xbar - soft_threshold(xbar - g, 3 * 0.2)) ** 2))
    assert stationarity_measure(prob, xs).prox_gradient_gap == pytest.approx(want)


def test_residuals_hand_case():
    g = Graph(2, ((0, 1),))
    xs = np.array([[3.0], [1.0]])
    res = residuals(g, xs, xs)
    assert res.consensus == pytest.approx(2.0)
    assert res.splitting == 0.0
    assert res.combined == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 400))
def test_residuals_pythagorean(seed):
    g = build_topology("random_connected", 5, seed=seed, prob=0.5)
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((5, 2))
    ys = rng.standard_normal((5, 2))
    res = residuals(g, xs, ys)
    assert res.combined ** 2 == pytest.approx(res.consensus ** 2 + res.splitting ** 2,
                                              abs=1e-12)


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
@pytest.mark.parametrize("case", ["equal", "ragged", "p1"])
def test_gradient_error_cases(kind, case, ragged_problem):
    # one stacked exact pass gives the per-agent full_gradient sum bit for bit
    prob = {"equal": lambda: make_problem(kind, 4, 3, 10, 1, alpha=0.3),
            "ragged": lambda: ragged_problem(kind),
            "p1": lambda: make_problem(kind, 3, 1, 17, 2, alpha=0.3)}[case]()
    xs, vs = np.random.default_rng(8).standard_normal((2, prob.n, prob.p))
    exact = np.array([full_gradient(prob, i, xs[i]) for i in range(prob.n)])
    want = 0.0
    for i in range(prob.n):
        want += float(np.sum((vs[i] - exact[i]) ** 2))
    assert gradient_error(prob, xs, vs) == want
    assert gradient_error(prob, xs, exact) == 0.0


def test_make_constants_defaults(ring4):
    assert THETA == 1.0 and C_GAMMA == 1.0 and C_ERR == 24.0
    sched = Schedules()
    S, _, c_beta = step_analysis(ring4, sched, 1.0)
    want = (12.0 * np.max(np.abs(np.linalg.eigvalsh(S))) ** 2 + 24.0) / sched.c_rho
    assert c_beta == pytest.approx(want)


@pytest.mark.parametrize("n, sched, L", [(4, Schedules(), 1.0),
                                         (1, Schedules(100.0, 1.0, 100.0), 0.1)],
                         ids=["ring4", "single_node"])
def test_feasibility_c_mu_maximizes_the_smaller_margin(n, sched, L):
    # the ring's crossing lies below c_mu = 1 and the single node's above,
    # one per form of the closed-form root
    g = build_topology("ring", n) if n > 1 else Graph(1, ())
    degrees = step_degrees(g)
    S_run, _, c_beta = step_analysis(g, sched, L)
    report = constants_feasibility(g, sched, L, S_run, c_beta)
    AtA = dense_AtA(g, 1)
    S = np.diag(sched.c_eta * (degrees + 1.0)) - sched.c_rho * AtA
    step_min = np.linalg.eigvalsh(S + 0.5 * sched.c_rho * AtA
                                  - (3.0 / sched.c_rho) * (S @ S))[0]
    c_mu = np.geomspace(1e-4, 1e4, 200_001)
    margin_e = 2.0 * sched.c_a - 48.0 / sched.c_rho - 0.5 / c_mu
    margin_x = step_min - 0.5 * c_mu - 0.5 * c_beta - 0.5 * L - 2.0 * L * L
    worst = np.minimum(margin_e, margin_x)
    best = int(np.argmax(worst))
    assert report.c_mu == pytest.approx(c_mu[best], rel=1e-4)
    assert report.margin >= worst[best]
    assert report.margin == pytest.approx(worst[best], rel=1e-6)
    assert report.feasible == (n == 1)


def test_feasibility_certifies_a_single_node():
    # one node with c_eta = c_rho: S = 0, so the step margin is
    # X0 - c_mu/2 with X0 = c_rho/2 - c_beta/2 - L/2 - 2 L^2 and
    # c_beta = 24 L^2 / c_rho; the error margin is E0 - 1/(2 c_mu) with
    # E0 = 2 c_a - 48 / c_rho
    g = Graph(1, ())
    sched = Schedules(100.0, 1.0, 100.0)
    S, _, c_beta = step_analysis(g, sched, 0.1)
    report = constants_feasibility(g, sched, 0.1, S, c_beta)
    e0, x0 = 2.0 - 0.48, 50.0 - 0.0012 - 0.05 - 0.02
    c_mu = (x0 - e0) + np.hypot(x0 - e0, 1.0)
    assert report.feasible
    assert report.c_mu == pytest.approx(c_mu, rel=1e-12)      # about 96.83
    assert report.margin == pytest.approx(e0 - 0.5 / c_mu, rel=1e-12)  # about 1.515


@pytest.mark.parametrize("uniform", [False, True])
def test_feasibility_certifies_no_graph_with_an_edge(uniform):
    # on the pair the step margin needs 2 c_eta / c_rho in two disjoint
    # intervals at once, one per eigenvalue of L + I
    for g in (Graph(2, ((0, 1),)), build_topology("ring", 4),
              build_topology("star", 8)):
        for c_rho in np.geomspace(0.1, 1e4, 6):
            for c_eta in np.geomspace(0.1, 1e5, 7):
                for L in (0.1, 1.0):
                    sched = Schedules(c_rho, 10.0, c_eta)
                    S, _, c_beta = step_analysis(g, sched, L, uniform)
                    report = constants_feasibility(g, sched, L, S, c_beta)
                    assert not report.feasible and report.margin < 0


def test_lyapunov_collapses_at_stationary_state(quad_problem, ring4):
    # every agent at the consensus minimizer, momentum exact, duals zero,
    # no motion: the merit reduces to the objective value
    prob, g = quad_problem, ring4
    H = np.zeros((2, 2))
    c = np.zeros(2)
    for i in range(4):
        A, b = _local_samples(prob, i)
        H += A.T @ A / A.shape[0]
        c += A.T @ b / A.shape[0]
    xstar = np.linalg.solve(H, c)
    xs = np.tile(xstar, (4, 1))
    vs = np.array([full_gradient(prob, i, xstar) for i in range(4)])
    sched = Schedules()
    c_beta = step_analysis(g, sched, prob.smoothness)[2]
    lam = np.zeros((g.m + g.n) * 2)
    err_sq = gradient_error(prob, xs, vs)
    snap = lyapunov(prob, g, sched, c_beta, 5, xs, xs, lam, xs, err_sq, err_sq)
    F = sum(smooth_value(prob, i, xstar) for i in range(4))
    assert snap.phi == pytest.approx(F)
    assert snap.err_term == 0.0 and snap.momentum_term == 0.0
    total = snap.al_value + snap.err_term + snap.err_prev_term + snap.momentum_term
    assert snap.phi == pytest.approx(total, abs=1e-12)


def test_lyapunov_needs_history(quad_problem, ring4):
    sched = Schedules()
    c_beta = step_analysis(ring4, sched, 1.0)[2]
    xs = np.zeros((4, 2))
    vs = np.zeros((4, 2))
    err_sq = gradient_error(quad_problem, xs, vs)
    with pytest.raises(ValueError, match="merit needs state index >= 2, got 1"):
        lyapunov(quad_problem, ring4, sched, c_beta, 1, xs, xs,
                 np.zeros((ring4.m + ring4.n) * 2), xs, err_sq, err_sq)


def test_augmented_lagrangian_penalty_term(quad_problem, ring4):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((4, 2))
    ys = rng.standard_normal((4, 2))
    lam = rng.standard_normal((ring4.m + ring4.n) * 2)
    a1 = augmented_lagrangian(quad_problem, ring4, xs, ys, lam, 1.0)
    a2 = augmented_lagrangian(quad_problem, ring4, xs, ys, lam, 3.0)
    r = residual(ring4, xs, ys).ravel()
    assert a2 - a1 == pytest.approx(float(r @ r), rel=1e-12)


@pytest.mark.parametrize("ragged", [False, True])
def test_augmented_lagrangian_is_the_per_agent_sum(ragged, ragged_problem):
    # F is one stacked pass (per run of equal local sizes on a ragged dataset) and H one
    # stacked l1 pass; each must equal the per-agent sum bit for bit, with
    # and without a regularizer
    for reg in ({}, {"regularizer": "l1", "l1_weight": 0.07}):
        prob = (ragged_problem("nonconvex_robust", 2, **reg) if ragged
                else make_problem("logistic", 4, 2, 15, 3, alpha=0.3, **reg))
        g = build_topology("ring", prob.n)
        rng = np.random.default_rng(8)
        xs, ys = rng.standard_normal((2, prob.n, 2))
        lam = rng.standard_normal((g.m + g.n) * 2)
        F = sum(smooth_value(prob, i, xs[i]) for i in range(prob.n))
        H = sum(float(prob.l1_weight * np.sum(np.abs(ys[i]))) for i in range(prob.n))
        assert (H > 0) == bool(reg)
        r = residual(g, xs, ys).ravel()
        want = float(F + H - lam @ r + 0.5 * 2.0 * float(r @ r))
        assert augmented_lagrangian(prob, g, xs, ys, lam, 2.0) == want


def test_descent_drift_formula():
    sched = Schedules()
    k = 10
    want = (0.5 * (sched.rho(k) - sched.rho(k - 1)) * 2.0
            + 2.0 * sched.a(k) ** 2 * 0.7 * C_GAMMA * (k + 1) ** (1 / 3))
    assert descent_drift(sched, k, 2.0, 0.7) == pytest.approx(want)


def test_rate_fit_power_law():
    ks = np.arange(1, 10001, dtype=float)
    slope, _ = rate_fit(ks, ks ** (-2.0 / 3.0))
    assert slope == pytest.approx(-2.0 / 3.0, abs=1e-6)


def test_rate_fit_constant():
    ks = np.arange(1, 2001, dtype=float)
    slope, _ = rate_fit(ks, np.full(ks.size, 3.7))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_insufficient():
    with pytest.raises(InsufficientTrace):
        rate_fit(np.arange(1, 50, dtype=float), np.ones(49))


def test_rate_fit_averaged():
    ks = np.arange(1, 5001, dtype=float)
    curves = [(ks, 2.0 * ks ** (-0.5)), (ks, 4.0 * ks ** (-0.5))]
    slope, _ = rate_fit_averaged(curves)
    assert slope == pytest.approx(-0.5, abs=1e-6)
    with pytest.raises(ValueError, match="replicas must share their logged rounds"):
        rate_fit_averaged([(ks, ks), (ks[:-1], ks[:-1])])


def test_min_prefix():
    vals = np.array([5.0, 7.0, 3.0, 4.0, 1.0])
    assert np.array_equal(min_prefix(vals), [5.0, 5.0, 3.0, 3.0, 1.0])


def test_accumulation_weighted_sum_matches_loop():
    rng = np.random.default_rng(2)
    K = 50
    err = rng.random(K + 1)
    dx = rng.random(K + 1)
    r = rng.random(K + 1)
    want = sum(k ** (-1 / 3) * err[k - 1] + k ** (1 / 3) * dx[k] + k ** (1 / 3) * r[k]
               for k in range(1, K + 1))
    assert accumulation_weighted_sum(err, dx, r, K) == pytest.approx(want)
    with pytest.raises(ValueError, match=r"need per-state records up to K\+1=51"):
        accumulation_weighted_sum(err[:10], dx[:10], r[:10], K)


def test_accumulation_growth_is_at_most_logarithmic():
    # the weighted stability sum may grow like 1 + log K but no faster: its
    # ratio against that envelope must not increase across decades
    from hsmadmm.config import RunConfig
    from hsmadmm.harness import build_graph, build_problem
    from hsmadmm.simulator import run

    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=4, p=2,
                    problem="least_squares", samples_per_agent=30,
                    regularizer="none", batch_size=1, m0=32, K=10001, seed=1,
                    dataset_seed=5, track_lyapunov=False,
                    record_accumulation=True, metric_every=10000)
    trace = run(cfg, build_problem(cfg), build_graph(cfg))
    acc = trace.meta["accumulation"]
    ratios = []
    for K in (100, 1000, 10000):
        S = accumulation_weighted_sum(acc["err_sq"], acc["dx_sq"], acc["r_sq"], K)
        ratios.append(S / (1.0 + np.log(K)))
    assert ratios[1] <= 1.05 * ratios[0]
    assert ratios[2] <= 1.05 * ratios[1]


def test_dual_bound_checker_flags_fabricated_violation(ring4):
    S, s_norm, _ = step_analysis(ring4, Schedules(), 1.0)
    checker = DualBoundChecker(S, s_norm, L=1.0)
    lam_prev = np.zeros(ring4.m * 2 + 8)
    lam = np.full(ring4.m * 2 + 8, 50.0)   # huge dual jump, no motion
    xs = np.zeros((4, 2))
    rec = checker.check(5, xs, xs, xs, lam, lam_prev, 0.0, 0.0)
    assert rec is not None
    assert rec["check"] == "dual_step_bound" and rec["k"] == 5
    assert rec["lhs"] > rec["rhs"]
    # and no record when nothing moved
    assert checker.check(5, xs, xs, xs, lam_prev, lam_prev, 0.0, 0.0) is None


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("kind,n,p,hubs", [("ring", 16, 32, 1), ("star", 10, 8, 1),
                                            ("hub_leaf", 12, 16, 2)])
def test_step_matrix_layer_matches_dense_oracle(kind, n, p, hubs, uniform):
    # every analysis quantity is computed on the n x n matrix S; the dense
    # (np) x (np) matrix S kron I_p is built here only as the oracle
    g = build_topology(kind, n, hubs=hubs)
    sched = Schedules(c_rho=1.5, c_a=1.0, c_eta=2.5)
    L = 1.3
    degrees = (np.full(n, g.degree.max()) if uniform else g.degree).astype(float)
    C_eta = np.diag(np.repeat(sched.c_eta * (degrees + 1.0), p))
    AtA = dense_AtA(g, p)
    S_dense = C_eta - sched.c_rho * AtA
    norm_dense = float(np.max(np.abs(np.linalg.eigvalsh(S_dense))))

    S, s_norm, c_beta_run = step_analysis(g, sched, L, uniform)
    assert S.shape == (n, n)
    assert np.allclose(np.kron(S, np.eye(p)), S_dense, rtol=0, atol=1e-12)
    assert s_norm == pytest.approx(norm_dense, rel=1e-12)
    checker = DualBoundChecker(S, s_norm, L)

    # the merit function's c_beta at theta = THETA = 1
    c_beta = (12.0 * norm_dense ** 2 + 24.0 * L * L) / sched.c_rho
    assert c_beta_run == pytest.approx(c_beta, rel=1e-12)

    # the report's margin is the step-matrix margin at theta = c_gamma = 1
    # and its c_mu
    report = constants_feasibility(g, sched, L, S, c_beta_run)
    Cx = (C_eta - 0.5 * sched.c_rho * AtA - (3.0 / sched.c_rho) * (S_dense @ S_dense)
          - (0.5 * report.c_mu + 0.5 * c_beta + 0.5 * L + 2.0 * L * L)
          * np.eye(n * p))
    assert report.margin == pytest.approx(
        float(np.linalg.eigvalsh(Cx)[0]), rel=1e-10, abs=1e-10)

    rng = np.random.default_rng(4)
    xs, xs_prev, xs_prev2 = rng.standard_normal((3, n, p))
    dX = xs - xs_prev
    want = (S_dense @ dX.ravel()).reshape(n, p)
    assert np.allclose(checker.S_base @ dX, want, rtol=0, atol=1e-12)
    s = 7
    S_dx = s ** (1 / 3) * want.ravel()
    dx_prev = (xs_prev - xs_prev2).ravel()
    rhs = (2.0 * float(S_dx @ S_dx)
           + (4.0 * ((s - 1) ** (1 / 3) * norm_dense) ** 2 + 8.0 * L * L)
           * float(dx_prev @ dx_prev) + 16.0 * (0.3 + 0.2))
    lam = np.full((g.m + g.n) * p, 1e3)
    rec = checker.check(s, xs, xs_prev, xs_prev2, lam, np.zeros_like(lam), 0.3, 0.2)
    assert rec is not None and rec["rhs"] == pytest.approx(rhs, rel=1e-12)
