import numpy as np
import pytest

from hsmadmm.baselines import batch_rows
from hsmadmm.estimator import update_momentum
from hsmadmm.metrics import momentum_recursion_mc_check
from hsmadmm.problems import (CompositeProblem, batch_gradients, draw_batch,
                              full_gradient, make_problem,
                              per_sample_gradients, stochastic_gradient)
from hsmadmm.simulator import run
from hsmadmm.config import RunConfig
from hsmadmm.harness import build_graph, build_problem
from hsmadmm.hsm_admm import Schedules


def start_rows(prob, rngs, m0):
    # the start's batch: m0 rows per agent, as ``simulator.run`` draws them
    return next(batch_rows(prob, rngs, m0, 1))


def scalar_problem():
    # p = 1, single sample a=1, b=0: the per-sample gradient at x is x itself
    return CompositeProblem("least_squares", np.ones((1, 1)), np.zeros(1), [1])


def test_update_hand_values():
    prob = scalar_problem()
    v = update_momentum(np.array([[3.0]]), np.array([[2.0]]), prob,
                        np.array([[1.0]]), 0.5, None)
    assert v[0, 0] == pytest.approx(1.0 + 0.5 * (3.0 - 2.0))


def test_momentum_one_is_plain_gradient():
    prob = make_problem("logistic", 2, 3, 10, 1, alpha=0.1)
    v_old = np.full((2, 3), 9.0)
    x_old = np.zeros((2, 3))
    x_new = np.array([[0.2, -0.4, 1.0], [0.5, 0.0, -1.0]])
    got = update_momentum(v_old, x_old, prob, x_new, 1.0, None)
    for i in range(2):
        assert np.array_equal(got[i], full_gradient(prob, i, x_new[i]))

    # sampled path: agent i evaluates its own stacked rows
    rows = next(batch_rows(prob, [np.random.default_rng([5, i]) for i in range(2)],
                           1, 1))
    got_s = update_momentum(v_old, x_old, prob, x_new, 1.0, rows)
    for i in range(2):
        batch = draw_batch(prob, i, np.random.default_rng([5, i]), 1)
        assert np.array_equal(got_s[i], stochastic_gradient(prob, i, x_new[i], batch))


@pytest.mark.parametrize("ragged", [False, True])
def test_exact_refresh_and_init_equal_the_per_agent_formula(ragged, ragged_problem):
    # batch 0 evaluates every agent's exact gradient in stacked passes, one
    # run of equal local sizes at a time on a ragged dataset; the sampled start draws per
    # agent, in agent order, and evaluates every draw in one stacked pass
    prob = (ragged_problem() if ragged
            else make_problem("nonconvex_robust", 4, 3, 10, 1, alpha=0.3))
    v, x_old, x_new = np.random.default_rng(6).standard_normal((3, prob.n, prob.p))
    got = update_momentum(v, x_old, prob, x_new, 0.3, None)
    init = batch_gradients(prob, x_old, None)
    rngs = [np.random.default_rng([9, i]) for i in range(prob.n)]
    sampled = batch_gradients(prob, x_old, start_rows(prob, rngs, 3))
    for i in range(prob.n):
        g_old = full_gradient(prob, i, x_old[i])
        want = full_gradient(prob, i, x_new[i]) + 0.7 * (v[i] - g_old)
        assert got[i].tobytes() == want.tobytes()
        assert init[i].tobytes() == g_old.tobytes()
        rng = np.random.default_rng([9, i])
        batch = draw_batch(prob, i, rng, 3)
        assert sampled[i].tobytes() == stochastic_gradient(prob, i, x_old[i], batch).tobytes()
        assert rngs[i].bit_generator.state == rng.bit_generator.state


def test_stationary_iterate_full_batch():
    prob = make_problem("least_squares", 2, 2, 8, 3)
    x = np.array([[0.5, -0.5], [1.0, 0.0]])
    g = np.array([full_gradient(prob, i, x[i]) for i in range(2)])
    v_old = np.array([[2.0, -1.0], [0.0, 3.0]])
    new = update_momentum(v_old, x.copy(), prob, x, 0.25, None)
    assert np.allclose(new, g + 0.75 * (v_old - g), atol=1e-15)


def test_momentum_parameter_range():
    prob = scalar_problem()
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"momentum parameter must be in \(0, 1\]"):
            update_momentum(np.zeros((1, 1)), np.zeros((1, 1)), prob,
                            np.ones((1, 1)), bad, None)


def test_init_single_draw_matches_oracle():
    prob = make_problem("least_squares", 2, 3, 9, 4)
    x0 = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]])
    v = batch_gradients(prob, x0, start_rows(
        prob, [np.random.default_rng([8, i]) for i in range(2)], 1))
    for i in range(2):
        batch = draw_batch(prob, i, np.random.default_rng([8, i]), 1)
        assert np.array_equal(v[i], stochastic_gradient(prob, i, x0[i], batch))


def test_init_zero_gradient_problem():
    prob = CompositeProblem("least_squares", np.zeros((5, 2)), np.zeros(5), [5])
    v = batch_gradients(prob, np.ones((1, 2)),
                        start_rows(prob, [np.random.default_rng(1)], 7))
    assert np.array_equal(v, np.zeros((1, 2)))


def test_init_concentration():
    prob = make_problem("logistic", 2, 4, 12, 6, alpha=0.2)
    x0 = np.random.default_rng(2).standard_normal(4)
    m0 = 10 * prob.local_size(0)
    G = per_sample_gradients(prob, 0, x0)
    sigma = np.sqrt(np.mean(np.sum((G - G.mean(axis=0)) ** 2, axis=1)))
    v = batch_gradients(prob, np.tile(x0, (2, 1)), start_rows(
        prob, [np.random.default_rng(3), np.random.default_rng(4)], m0))
    gap = np.linalg.norm(v[0] - full_gradient(prob, 0, x0))
    assert gap <= 3.0 * sigma / np.sqrt(m0)


def test_same_sample_rule_via_variance_recursion():
    # frozen states from a short run; the recursion bound only holds when both
    # gradient evaluations inside one refresh consume the same draw
    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=4, p=3,
                    problem="logistic", samples_per_agent=20, regularizer="l1",
                    l1_weight=1e-3, alpha=0.1, noniid=True, batch_size=1, m0=8,
                    K=20, metric_every=1, track_lyapunov=False, dataset_seed=9)
    g = build_graph(cfg)
    prob = build_problem(cfg)
    sched = Schedules(cfg.c_rho, cfg.c_a, cfg.c_eta)
    snaps = {}
    run(cfg, prob, g, metrics_sink=lambda s, row, state: snaps.update(
        {s: (state.xs(), state.vs())}))
    rng = np.random.default_rng(44)
    for k in (6, 12):
        xs_prev, vs_prev = snaps[k]
        xs_new, _ = snaps[k + 1]
        res = momentum_recursion_mc_check(prob, xs_prev, xs_new, vs_prev,
                                          sched.a(k), 1500, rng)
        assert res["ok"], res


def test_deterministic_under_stream():
    prob = make_problem("nonconvex_robust", 2, 3, 10, 5, alpha=0.1)
    x0 = np.zeros((2, 3))

    def streams(seed):
        return [np.random.default_rng([seed, i]) for i in range(2)]

    v1 = batch_gradients(prob, x0, start_rows(prob, streams(7), 5))
    v2 = batch_gradients(prob, x0, start_rows(prob, streams(7), 5))
    assert np.array_equal(v1, v2)
    n1 = update_momentum(v1, x0, prob, np.ones((2, 3)), 0.3,
                         next(batch_rows(prob, streams(1), 1, 1)))
    n2 = update_momentum(v2, x0, prob, np.ones((2, 3)), 0.3,
                         next(batch_rows(prob, streams(1), 1, 1)))
    assert np.array_equal(n1, n2)
