import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmadmm.checks import block_vs_dense
from hsmadmm.graph import (DENSE_LIMIT, Graph, NotConnected, apply_Mt,
                           build_topology, dense_A, incidence_matrix,
                           laplacian, load_edge_list, residual,
                           save_edge_list, singular_sq_extremes,
                           smallest_singular_sq_A)


def test_ring_shape():
    g = build_topology("ring", 8)
    assert g.m == 8
    assert np.all(g.degree == 2)


def test_star_shape():
    g = build_topology("star", 8)
    assert g.m == 7
    assert g.degree[0] == 7
    assert np.all(g.degree[1:] == 1)


def test_hub_leaf_single_hub_is_star():
    star = build_topology("star", 8)
    hub = build_topology("hub_leaf", 8, hubs=1)
    assert hub.edges == star.edges


def test_hub_leaf_two_hubs():
    g = build_topology("hub_leaf", 9, hubs=2)
    assert (0, 1) in g.edges
    assert g.degree[0] + g.degree[1] == 2 + 7  # hub clique plus 7 leaves


def test_random_connected_deterministic():
    g1 = build_topology("random_connected", 8, seed=7, prob=0.3)
    g2 = build_topology("random_connected", 8, seed=7, prob=0.3)
    assert g1.edges == g2.edges
    assert g1._connected()


def test_random_connected_exhausts_attempts():
    with pytest.raises(NotConnected):
        build_topology("random_connected", 10, seed=0, prob=1e-9)


def test_build_topology_rejects_small_n():
    with pytest.raises(ValueError, match="build_topology requires n >= 2, got 1"):
        build_topology("ring", 1)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError, match="self loop at node 0"):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        Graph(3, ((0, 1), (1, 0), (1, 2)))


def test_graph_normalizes_orientation():
    g = Graph(3, ((2, 1), (1, 0), (0, 2)))
    assert g.edges == ((1, 2), (0, 1), (0, 2))


def test_disconnected_rejected():
    with pytest.raises(NotConnected):
        Graph(4, ((0, 1), (2, 3)))


def test_single_node_graph_allowed():
    g = Graph(1, ())
    assert g.m == 0 and g.degree.tolist() == [0]


def test_incidence_triangle_by_hand():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    M = incidence_matrix(g)
    assert np.array_equal(M, [[1, -1, 0], [0, 1, -1], [1, 0, -1]])
    assert np.array_equal(M.T @ M, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_incidence_single_edge():
    g = Graph(2, ((0, 1),))
    M = incidence_matrix(g)
    assert np.array_equal(M, [[1, -1]])
    assert np.array_equal(M.T @ M, [[1, -1], [-1, 1]])


@pytest.mark.parametrize("kind,n", [("ring", 6), ("star", 7), ("hub_leaf", 9)])
def test_incidence_product_equals_laplacian(kind, n):
    g = build_topology(kind, n)
    M = incidence_matrix(g)
    L = laplacian(g)
    assert np.allclose(M.T @ M, L, atol=1e-14)
    assert np.array_equal(np.diag(L).astype(int), g.degree)
    assert np.allclose((M.T @ M).sum(axis=1), 0.0, atol=1e-14)


def test_apply_A_consensus_point_kills_edge_block():
    g = build_topology("ring", 5)
    X = np.tile(np.array([1.0, -2.0, 0.5]), (5, 1))
    out = residual(g, X, np.zeros_like(X))  # A x
    assert out.shape == (g.m + g.n, 3)
    assert np.array_equal(out[: g.m], np.zeros((g.m, 3)))
    assert np.array_equal(out[g.m:], X)


def test_apply_A_path_by_hand():
    g = Graph(2, ((0, 1),))
    X = np.array([[3.0], [1.0]])
    assert np.array_equal(residual(g, X, np.zeros_like(X)), [[2.0], [3.0], [1.0]])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500), vec_seed=st.integers(0, 500))
def test_implicit_matches_dense(seed, vec_seed):
    g = build_topology("random_connected", 6 + seed % 10, seed=seed, prob=0.4)
    assert block_vs_dense(g, 2, np.random.default_rng(vec_seed)) <= 1e-12


def test_AtA_is_laplacian_action_plus_identity():
    g = build_topology("random_connected", 7, seed=3, prob=0.5)
    X = np.random.default_rng(0).standard_normal((7, 2))
    want = (np.kron(laplacian(g), np.eye(2)) + np.eye(14)) @ X.ravel()
    Ax = residual(g, X, np.zeros_like(X))
    assert np.allclose(dense_A(g, 2).T @ Ax.ravel(), want, atol=1e-12)
    assert np.allclose((apply_Mt(g, Ax[:g.m]) + Ax[g.m:]).ravel(), want, atol=1e-12)


@pytest.mark.parametrize("kind,n", [("ring", 8), ("star", 8), ("ring", 2),
                                    ("hub_leaf", 12)])
def test_smallest_singular_sq_is_one(kind, n):
    assert abs(smallest_singular_sq_A(build_topology(kind, n)) - 1.0) <= 1e-10


def test_singular_extremes_path():
    lo, hi = singular_sq_extremes(Graph(2, ((0, 1),)))
    assert abs(lo - 1.0) <= 1e-12
    assert abs(hi - 3.0) <= 1e-12


def test_dense_guard():
    g = build_topology("ring", 100)
    assert g.n * 50 > DENSE_LIMIT
    assert abs(smallest_singular_sq_A(g) - 1.0) <= 1e-10
    with pytest.raises(ValueError, match=f"dense matrices need n\\*p <= {DENSE_LIMIT}"):
        dense_A(g, 50)


def test_edge_list_round_trip(tmp_path):
    g = build_topology("random_connected", 9, seed=4, prob=0.35)
    path = tmp_path / "edges.txt"
    save_edge_list(g, path)
    loaded = load_edge_list(path, n=9)
    assert loaded.edges == g.edges


def test_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2\n")
    with pytest.raises(ValueError, match=r":2: expected 'i j', got '2'"):
        load_edge_list(path, n=3)


def test_sum_of_degrees_is_twice_edges():
    for kind in ("ring", "star", "hub_leaf"):
        g = build_topology(kind, 10)
        assert int(g.degree.sum()) == 2 * g.m
