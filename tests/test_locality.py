"""No global knowledge, bit for bit: after t rounds an agent's iterate under
``hsm_admm`` depends only on the graph within t hops of it. Two graphs that
differ only far from agent 0 must give agent 0 the same x until the
difference has had time to travel to it; ``uniform_admm`` reads the maximum
degree, so it sees the far change at once."""
import numpy as np
import pytest

from hsmadmm.config import RunConfig
from hsmadmm.graph import Graph
from hsmadmm.problems import make_problem
from hsmadmm.simulator import run

N_AGENTS = 12
RING = tuple((i, (i + 1) % N_AGENTS) for i in range(N_AGENTS))
CHORDED = RING + ((5, 7), (6, 8), (5, 8), (4, 8))
K = 6

# last round at which agent 0's x is bit-identical on both graphs
LOCAL_THROUGH = {"hsm_admm": 4, "uniform_admm": 0, "prox_dsgd": 4, "prox_gt": 4}


def hops_from(graph, source):
    dist, frontier = {source: 0}, [source]
    while frontier:
        nxt = []
        for i in frontier:
            for j in graph.neighbors[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    nxt.append(j)
        frontier = nxt
    return dist


def agent0_iterates(algorithm, batch_size, graph, prob):
    cfg = RunConfig(algorithm=algorithm, topology="ring", n=N_AGENTS, p=4,
                    problem="logistic", samples_per_agent=10, regularizer="l1",
                    l1_weight=0.01, alpha=0.1, batch_size=batch_size, m0=4, K=K,
                    metric_every=1, track_lyapunov=False)
    xs = {}
    run(cfg, prob, graph, metrics_sink=lambda s, row, state: xs.update(
        {s: state.x[0].copy()}))
    return [xs[s] for s in range(1, K + 1)]


def test_the_graphs_differ_four_hops_from_agent_0():
    ring, chorded = Graph(N_AGENTS, RING), Graph(N_AGENTS, CHORDED)
    changed = np.flatnonzero(ring.degree != chorded.degree)
    assert changed.tolist() == [4, 5, 6, 7, 8]
    assert (ring.degree.max(), chorded.degree.max()) == (2, 5)
    for graph in (ring, chorded):
        dist = hops_from(graph, 0)
        assert min(dist[i] for i in changed) == 4


@pytest.mark.parametrize("batch_size", [0, 2])
@pytest.mark.parametrize("algorithm", sorted(LOCAL_THROUGH))
def test_agent_0_sees_only_its_own_neighborhood(algorithm, batch_size):
    prob = make_problem("logistic", N_AGENTS, 4, 10, 3, regularizer="l1",
                        l1_weight=0.01, alpha=0.1)
    on_ring = agent0_iterates(algorithm, batch_size, Graph(N_AGENTS, RING), prob)
    on_chorded = agent0_iterates(algorithm, batch_size, Graph(N_AGENTS, CHORDED), prob)
    same = [a.tobytes() == b.tobytes() for a, b in zip(on_ring, on_chorded)]
    through = LOCAL_THROUGH[algorithm]
    assert same[:through] == [True] * through
    # the first round after the local window is where agent 0 sees the change
    assert not same[through]
