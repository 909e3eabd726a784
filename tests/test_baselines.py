import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmadmm import simulator
from hsmadmm.baselines import (BLOCK_INDICES, baseline_step, batch_rows,
                               init_dsgd_state, init_gt_state, metropolis_weights,
                               prox_dsgd_round, prox_gt_round)
from hsmadmm.config import RunConfig
from hsmadmm.graph import Graph, build_topology
from hsmadmm.harness import build_graph, build_problem
from hsmadmm.hsm_admm import (Schedules, hsm_admm_round, init_network_state,
                              step_degrees)
from hsmadmm.problems import draw_batch, full_gradient, make_problem, prox_h
from hsmadmm.simulator import MessageLedger, agent_streams, run


def test_metropolis_ring_thirds():
    W = metropolis_weights(build_topology("ring", 6))
    for i in range(6):
        for j in range(6):
            if i == j or W[i, j] > 0:
                assert W[i, j] == pytest.approx(1.0 / 3.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 300))
def test_metropolis_properties(seed):
    g = build_topology("random_connected", 5 + seed % 8, seed=seed, prob=0.45)
    W = metropolis_weights(g)
    assert np.allclose(W, W.T, atol=1e-15)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(W >= -1e-15)
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                assert (W[i, j] > 0) == (j in g.neighbors[i])


def test_uniform_equals_hsm_on_regular_graph():
    cfg = RunConfig(algorithm="hsm_admm", topology="ring", n=6, p=3, K=50,
                    problem="logistic", samples_per_agent=10, regularizer="l1",
                    l1_weight=0.01, alpha=0.1, track_lyapunov=False)
    prob, g = build_problem(cfg), build_graph(cfg)
    t_h = run(cfg, prob, g)
    t_u = run(dataclasses.replace(cfg, algorithm="uniform_admm"), prob, g)
    rows_h = np.array([r[:-1] for r in t_h.rows], dtype=float)
    rows_u = np.array([r[:-1] for r in t_u.rows], dtype=float)
    # bit-identical trajectories when d_i = d_max
    assert np.array_equal(rows_h, rows_u, equal_nan=True)


def test_uniform_star_step_ratio():
    g = build_topology("star", 8)
    sched = Schedules()
    k = 3
    hetero = sched.eta(k, step_degrees(g))
    uniform = sched.eta(k, step_degrees(g, uniform=True))
    assert uniform[1] / hetero[1] == pytest.approx((7 + 1) / (1 + 1))
    assert uniform[0] == hetero[0] == sched.eta(k, 7)


def test_uniform_message_count_matches_hsm(quad_problem, ring4):
    rngs = agent_streams(3, 4)
    state_h = init_network_state(quad_problem, ring4, np.zeros(2),
                                 next(batch_rows(quad_problem, rngs, 2, 1)))
    led_h = MessageLedger()
    led_u = MessageLedger()
    rngs_u = agent_streams(3, 4)
    state_u = init_network_state(quad_problem, ring4, np.zeros(2),
                                 next(batch_rows(quad_problem, rngs_u, 2, 1)))
    uniform = step_degrees(ring4, uniform=True)
    rows_h = batch_rows(quad_problem, rngs, 1, 10)
    rows_u = batch_rows(quad_problem, rngs_u, 1, 10)
    for k in range(10):
        hsm_admm_round(state_h, quad_problem, ring4, Schedules(), k, next(rows_h),
                       degrees=step_degrees(ring4), ledger=led_h)
        hsm_admm_round(state_u, quad_problem, ring4, Schedules(), k, next(rows_u),
                       degrees=uniform, ledger=led_u)
    assert led_h.vector_messages == led_u.vector_messages


def test_gt_transmits_twice_as_much(quad_problem, ring4):
    W = metropolis_weights(ring4)
    dsgd_rows = batch_rows(quad_problem, agent_streams(5, 4), 1, 15)
    dsgd = init_dsgd_state(ring4, np.zeros(2))
    led_d = MessageLedger()
    gt = init_gt_state(quad_problem, ring4, np.zeros(2),
                       next(batch_rows(quad_problem, agent_streams(5, 4), 1, 1)))
    led_g = MessageLedger()
    for k in range(15):
        prox_dsgd_round(dsgd, quad_problem, ring4, W, k, next(dsgd_rows),
                        ledger=led_d)
        prox_gt_round(gt, quad_problem, ring4, W, k,
                      next(batch_rows(quad_problem, agent_streams(5 + k, 4), 1, 1)),
                      ledger=led_g)
    assert led_g.vector_messages == 2 * led_d.vector_messages
    assert led_d.vector_messages == 15 * 2 * ring4.m


def test_tracking_invariant(composite_problem):
    g = build_topology("random_connected", 4, seed=1, prob=0.7)
    W = metropolis_weights(g)
    rows = batch_rows(composite_problem, agent_streams(9, 4), 1, 51)
    state = init_gt_state(composite_problem, g, np.zeros(3), next(rows))
    for k in range(50):
        prox_gt_round(state, composite_problem, g, W, k, next(rows))
        gap = np.linalg.norm(state.s.sum(axis=0) - state.g.sum(axis=0))
        assert gap <= 1e-10


def test_exact_gt_rounds_on_ragged_data_equal_the_per_agent_formula(ragged_problem):
    # rows None: each round's exact gradients come from stacked passes, one
    # run of equal local sizes at a time; iterates, trackers and gradients must be the
    # per-agent formula's bit for bit
    prob = ragged_problem(regularizer="l1", l1_weight=0.01)
    g = build_topology("star", prob.n)
    W = metropolis_weights(g)
    x0 = np.array([0.5, -1.0, 2.0])

    def exact(X):
        return np.array([full_gradient(prob, i, X[i]) for i in range(prob.n)])

    state = init_gt_state(prob, g, x0, None)
    x = np.tile(x0, (prob.n, 1))
    s = grads = exact(x)
    for k in range(5):
        if k > 0:
            prox_gt_round(state, prob, g, W, k - 1, None, step_scale=0.3)
            gamma = baseline_step(0.3, k - 1)
            x = prox_h(prob, W @ x - gamma * s, gamma)
            s, grads = W @ s + exact(x) - grads, exact(x)
        for got, want in ((state.x, x), (state.s, s), (state.g, grads)):
            assert got.tobytes() == want.tobytes()


def test_single_node_reduces_to_centralized_prox_sgd():
    g = Graph(1, ())
    prob = make_problem("least_squares", 1, 2, 12, 7, regularizer="l1",
                        l1_weight=0.02)
    W = metropolis_weights(g)
    assert W.shape == (1, 1) and W[0, 0] == 1.0

    state = init_dsgd_state(g, np.array([1.0, -2.0]))
    prox_dsgd_round(state, prob, g, W, 0, None, step_scale=0.2)
    # centralized prediction with the same (deterministic) gradient
    gamma = baseline_step(0.2, 0)
    g0 = full_gradient(prob, 0, np.array([1.0, -2.0]))
    want = prox_h(prob, np.array([1.0, -2.0]) - gamma * g0, gamma)
    assert np.allclose(state.x[0], want, atol=1e-15)


def test_gt_single_node_runs():
    g = Graph(1, ())
    prob = make_problem("least_squares", 1, 2, 8, 1)
    state = init_gt_state(prob, g, np.zeros(2), None)
    led = MessageLedger()
    for k in range(5):
        prox_gt_round(state, prob, g, metropolis_weights(g), k, None, ledger=led)
    assert led.vector_messages == 0
    assert np.all(np.isfinite(state.xs()))


@pytest.mark.parametrize("N, b", [(50, 1), (30, 1), (5000, 32), (20, 3), (7, 1)])
@pytest.mark.parametrize("B", [1, 45, 256])
def test_block_draw_equals_per_round_draws(N, b, B):
    # batch_rows relies on this property of numpy's generator: a trajectory
    # changes silently if a numpy release breaks it.
    block, single = np.random.default_rng([4, 1, 0]), np.random.default_rng([4, 1, 0])
    drawn = block.integers(0, N, size=B * b)
    want = np.concatenate([single.integers(0, N, size=b) for _ in range(B)])
    assert np.array_equal(drawn, want)
    assert block.bit_generator.state == single.bit_generator.state


def _assert_batch_rows_match_per_round_draws(prob, batch_size, rounds):
    rows = list(batch_rows(prob, agent_streams(6, prob.n), batch_size, rounds))
    assert len(rows) == rounds
    ref = agent_streams(6, prob.n)
    for got in rows:
        want = [draw_batch(prob, i, ref[i], batch_size) for i in range(prob.n)]
        assert np.array_equal(got, want)


def test_batch_rows_match_per_round_draws_across_blocks():
    prob = make_problem("logistic", 16, 3, 10, 5)
    # crosses the 256-round block boundary
    _assert_batch_rows_match_per_round_draws(prob, 32, 301)
    assert list(batch_rows(prob, agent_streams(6, 16), 0, 3)) == [None] * 3


def test_batch_rows_match_per_round_draws_over_four_blocks():
    prob = make_problem("least_squares", 4, 3, 10, 5)
    assert BLOCK_INDICES // (4 * 4096) == 8      # rounds per block
    _assert_batch_rows_match_per_round_draws(prob, 4096, 27)


@pytest.mark.parametrize("algorithm, K", [("prox_gt", 300), ("prox_gt", 0),
                                          ("prox_dsgd", 300), ("prox_dsgd", 0)])
def test_run_draws_exactly_the_batches_it_uses(monkeypatch, algorithm, K):
    cfg = RunConfig(algorithm=algorithm, topology="ring", n=16, p=3,
                    problem="logistic", samples_per_agent=10, batch_size=32,
                    K=K, metric_every=100, seed=4)
    streams = agent_streams(cfg.seed, cfg.n)
    monkeypatch.setattr(simulator, "agent_streams", lambda seed, n: streams)
    prob = build_problem(cfg)
    run(cfg, prob, build_graph(cfg))
    # prox_gt draws the initial trackers' batch, then one per round
    ref = agent_streams(cfg.seed, cfg.n)
    for _ in range(K + (algorithm == "prox_gt")):
        for i in range(cfg.n):
            draw_batch(prob, i, ref[i], 32)
    assert [r.bit_generator.state for r in streams] == \
        [r.bit_generator.state for r in ref]
