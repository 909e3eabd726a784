import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmadmm.baselines import batch_rows
from hsmadmm.graph import Graph, build_topology, incidence_matrix, residual
from hsmadmm.hsm_admm import (NetworkState, Schedules, dense_round_reference,
                              hsm_admm_round, init_network_state, step_degrees,
                              step_duals, step_x, step_y)
from hsmadmm.problems import (CompositeProblem, _local_samples, full_gradient,
                              make_problem, prox_h)
from hsmadmm.simulator import MessageLedger, agent_streams


def test_schedule_values():
    s = Schedules(c_rho=1.0, c_a=1.0, c_eta=1.0)
    assert s.rho(7) == pytest.approx(2.0)          # t = 8
    assert s.a(0) == 1.0                           # clamped boundary
    assert s.eta(26, 2) == pytest.approx(9.0)      # t = 27, degree 2


def test_schedule_clamp():
    s = Schedules(c_a=5.0)
    assert s.a(0) == 1.0
    assert s.a(100) == pytest.approx(5.0 * 101 ** (-2 / 3))


@settings(max_examples=50, deadline=None)
@given(k=st.integers(0, 10 ** 6), c=st.floats(0.01, 50.0), d=st.integers(0, 40))
def test_schedule_ranges(k, c, d):
    s = Schedules(c_rho=c, c_a=c, c_eta=c)
    assert s.rho(k) > 0
    assert 0 < s.a(k) <= 1.0
    assert s.eta(k, d) > 0


def _state(x, beta, v, alpha=None):
    """Stacked state from per-agent rows, y = 0, the multiplier stacking the
    edge duals ``alpha`` (none by default) over the splitting duals
    ``beta``."""
    x = np.atleast_2d(np.asarray(x, float))
    alpha = np.zeros((0, x.shape[1])) if alpha is None else np.asarray(alpha, float)
    lam = np.vstack([alpha, np.atleast_2d(np.asarray(beta, float))])
    return NetworkState(x=x, y=np.zeros_like(x), lam=lam,
                        v=np.atleast_2d(np.asarray(v, float)))


SINGLE = Graph(1, ())


def test_step_y_identity_regularizer():
    prob = CompositeProblem("least_squares", np.zeros((1, 2)), np.zeros(1), [1])
    state = _state([3.0, -1.0], [1.0, 2.0], [0.0, 0.0])
    y = step_y(state, prob, SINGLE, rho=2.0)
    assert np.array_equal(y, state.x - state.lam[SINGLE.m:] / 2.0)


def test_step_y_hand_case():
    prob = CompositeProblem("least_squares", np.zeros((1, 1)), np.zeros(1), [1],
                            regularizer="l1", l1_weight=1.0)
    y = step_y(_state([3.0], [1.0], [0.0]), prob, SINGLE, rho=2.0)
    # prox input 2.5 at scale 0.5 shrinks by 0.5
    assert y[0, 0] == pytest.approx(2.0)


def test_step_y_large_rho_limit():
    prob = CompositeProblem("least_squares", np.zeros((1, 3)), np.zeros(1), [1],
                            regularizer="l1", l1_weight=1.0)
    state = _state([1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    y = step_y(state, prob, SINGLE, rho=1e8)
    assert np.allclose(y, state.x, atol=1e-7)


def test_step_x_consensus_fixed_point():
    # a triangle in consensus with zero duals and zero gradient stays put
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    x = np.tile([1.0, 2.0], (3, 1))
    state = _state(x, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)))
    out = step_x(state, g, x.copy(), rho=3.0, eta=np.full(3, 5.0))
    assert np.array_equal(out, x)


def test_step_x_hand_case():
    # two nodes at zero, unit gradient estimate at node 0, eta = 2
    g = Graph(2, ((0, 1),))
    state = _state([[0.0], [0.0]], [[0.0], [0.0]], [[1.0], [0.0]], [[0.0]])
    out = step_x(state, g, np.zeros((2, 1)), rho=7.0,
                 eta=np.array([2.0, 2.0]))
    assert out[0, 0] == pytest.approx(-0.5)
    assert out[1, 0] == 0.0


def test_step_x_edge_dual_signs():
    # the edge dual enters the low endpoint negated, the high one as is
    g = Graph(2, ((0, 1),))
    state = _state([[0.0], [0.0]], [[0.0], [0.0]], [[0.0], [0.0]], [[3.0]])
    out = step_x(state, g, np.zeros((2, 1)), rho=1.0,
                 eta=np.array([1.0, 2.0]))
    assert np.array_equal(out, [[3.0], [-1.5]])


def test_step_duals_zero_residuals():
    g = Graph(2, ((0, 1),))
    prob = CompositeProblem("least_squares", np.zeros((2, 2)), np.zeros(2),
                            [1, 1])
    state = init_network_state(prob, g, np.array([1.0, -1.0]), None)
    # consensus and splitting both hold at the start
    before = state.duals_vector()
    step_duals(state, g, rho=4.0)
    assert np.array_equal(state.duals_vector(), before)


def test_step_duals_is_one_residual_step():
    g = build_topology("random_connected", 5, seed=2, prob=0.5)
    rng = np.random.default_rng(4)
    x, y, v = rng.standard_normal((3, 5, 2))
    lam = rng.standard_normal((g.m + g.n, 2))
    state = NetworkState(x=x, y=y, lam=lam, v=v)
    step_duals(state, g, rho=1.7)
    assert state.lam.shape == (g.m + g.n, 2)
    assert np.array_equal(state.lam, lam - 1.7 * residual(g, x, y))


def test_duals_vector_is_a_view_of_lam(quad_problem, ring4):
    state = init_network_state(quad_problem, ring4, np.ones(2), None)
    assert state.lam.shape == (ring4.m + ring4.n, 2)
    assert np.shares_memory(state.duals_vector(), state.lam)
    hsm_admm_round(state, quad_problem, ring4, Schedules(), 0, None,
                   degrees=step_degrees(ring4))
    assert np.shares_memory(state.duals_vector(), state.lam)
    assert np.array_equal(state.duals_vector(), state.lam.ravel())


def test_round_matches_dense_reference(composite_problem):
    g = build_topology("random_connected", 4, seed=3, prob=0.6)
    sched = Schedules()
    rngs = agent_streams(5, 4)
    state = init_network_state(composite_problem, g, np.zeros(3),
                               next(batch_rows(composite_problem, rngs, 4, 1)))
    batches = batch_rows(composite_problem, rngs, 1, 40)
    worst = 0.0
    for k in range(40):
        x, y = state.xs().ravel(), state.ys().ravel()
        lam, v = state.duals_vector(), state.vs().ravel()
        y_ref, x_ref, lam_ref = dense_round_reference(
            g, composite_problem, sched, k, x, y, lam, v, degrees=step_degrees(g))
        hsm_admm_round(state, composite_problem, g, sched, k, next(batches),
                       degrees=step_degrees(g))
        worst = max(worst,
                    float(np.max(np.abs(state.ys().ravel() - y_ref))),
                    float(np.max(np.abs(state.xs().ravel() - x_ref))),
                    float(np.max(np.abs(state.duals_vector() - lam_ref))))
    assert worst <= 1e-10


def test_exact_stationary_point_is_fixed(quad_problem, ring4):
    # place every agent at the consensus minimizer with duals solving the
    # first-order conditions exactly, then verify one round moves nothing
    prob, g = quad_problem, ring4
    H = np.zeros((2, 2))
    c = np.zeros(2)
    for i in range(4):
        A, b = _local_samples(prob, i)
        H += A.T @ A / A.shape[0]
        c += A.T @ b / A.shape[0]
    xstar = np.linalg.solve(H, c)
    grads = np.concatenate([full_gradient(prob, i, xstar) for i in range(4)])
    M = incidence_matrix(g)
    alpha, *_ = np.linalg.lstsq(np.kron(M.T, np.eye(2)), grads, rcond=None)

    state = init_network_state(prob, g, xstar, None)
    state.lam[:g.m] = alpha.reshape(g.m, 2)
    before_x = state.xs()
    before_lam = state.duals_vector()
    hsm_admm_round(state, prob, g, Schedules(), 5, None, degrees=step_degrees(g))
    assert np.max(np.abs(state.xs() - before_x)) <= 1e-12
    assert np.max(np.abs(state.ys() - before_x)) <= 1e-12
    assert np.max(np.abs(state.duals_vector() - before_lam)) <= 1e-12


def test_round_message_count(quad_problem):
    g = build_topology("ring", 4)
    rngs = agent_streams(2, 4)
    state = init_network_state(quad_problem, g, np.zeros(2),
                               next(batch_rows(quad_problem, rngs, 2, 1)))
    ledger = MessageLedger()
    for k, rows in enumerate(batch_rows(quad_problem, rngs, 1, 20)):
        hsm_admm_round(state, quad_problem, g, Schedules(), k, rows,
                       degrees=step_degrees(g), ledger=ledger)
    assert ledger.vector_messages == 20 * 2 * g.m
    assert ledger.scalars_transmitted == 20 * 2 * g.m * 2


def test_single_node_degenerates_to_centralized():
    g = Graph(1, ())
    prob = make_problem("least_squares", 1, 2, 10, 3, regularizer="l1",
                        l1_weight=0.05)
    state = init_network_state(prob, g, np.array([1.0, -1.0]), None)
    sched = Schedules()
    # manual centralized prediction for round 0
    x, beta, v = state.x[0], state.lam[g.m], state.v[0]
    rho = sched.rho(0)
    y_pred = prox_h(prob, x - beta / rho, 1.0 / rho)
    x_pred = x - (v - beta + rho * (x - y_pred)) / sched.eta(0, 0)
    ledger = MessageLedger()
    hsm_admm_round(state, prob, g, sched, 0, None, degrees=step_degrees(g),
                   ledger=ledger)
    assert np.allclose(state.y[0], y_pred, atol=1e-15)
    assert np.allclose(state.x[0], x_pred, atol=1e-15)
    assert ledger.vector_messages == 0


def test_topology_independence_no_divergence(quad_problem):
    # constants fixed once; residuals must trend down on every topology
    sched = Schedules()
    for kind in ("ring", "star", "hub_leaf"):
        g = build_topology(kind, 4)
        state = init_network_state(quad_problem, g, np.ones(2), None)
        first = None
        for k in range(400):
            hsm_admm_round(state, quad_problem, g, sched, k, None,
                           degrees=step_degrees(g))
            if k == 20:
                first = np.max(np.abs(state.xs()))
        xs = state.xs()
        assert np.all(np.isfinite(xs))
        spread = float(np.sum((xs - xs.mean(axis=0)) ** 2))
        assert spread < 1e-6, f"{kind} failed to contract: {spread}"
        assert np.max(np.abs(xs)) < 10 * max(1.0, first)
