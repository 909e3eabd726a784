"""Communication topologies and the consensus constraint operators over them.

Agent variables are stacked as (n, p) block arrays in node order. The edge
operator A maps them to (m+n) blocks: signed per-edge differences on top
(one block per edge, oriented low index to high index), an identity copy
below; B is zeros on top and the negated identity below. A^T A is the graph
Laplacian action plus the identity, so the smallest squared singular value
of A is exactly 1 on every connected graph.

``residual`` applies A x + B y on block arrays as one (m+n, p) array, rows
in that order, and ``apply_Mt`` applies the transpose of its edge block by
neighbor sums; the block size p is read from the arrays.
Dense matrices are materialized only as verification oracles on small
networks (guarded by ``DENSE_LIMIT``). Spectral checks work on the n x n
Laplacian at any size.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Dense matrices are for verification only; refuse to build them past this.
DENSE_LIMIT = 4096

# Rejection-sampling budget of ``random_connected``.
MAX_ATTEMPTS = 1000

TOPOLOGY_KINDS = ("ring", "star", "hub_leaf", "random_connected", "from_edge_list")


class NotConnected(ValueError):
    """The edges do not connect every node; ``random_connected`` resamples
    on it."""


@dataclass
class Graph:
    """Undirected connected graph with canonical low-to-high edge orientation.

    Parameters
    ----------
    n : int
        Node count (n >= 1; a single isolated node is the degenerate case).
    edges : sequence of (int, int)
        Undirected edges; pairs are normalized to (min, max). Self loops and
        duplicates are rejected, as are disconnected graphs.

    ``low`` and ``high`` index the low and high endpoint of each edge in
    ``edges`` order.
    """

    n: int
    edges: tuple = ()
    degree: np.ndarray = field(init=False, repr=False)
    neighbors: tuple = field(init=False, repr=False)
    low: np.ndarray = field(init=False, repr=False)
    high: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        canon = []
        seen = set()
        for i, j in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        self.edges = tuple(canon)

        deg = np.zeros(self.n, dtype=np.int64)
        nbrs = [[] for _ in range(self.n)]
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
            nbrs[i].append(j)
            nbrs[j].append(i)
        self.degree = deg
        self.neighbors = tuple(tuple(sorted(v)) for v in nbrs)
        self.low = np.array([e[0] for e in self.edges], dtype=np.int64)
        self.high = np.array([e[1] for e in self.edges], dtype=np.int64)

        if not self._connected():
            raise NotConnected(f"graph with {self.n} nodes and {self.m} edges is not connected")

    def _connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    @property
    def m(self) -> int:
        return len(self.edges)


def build_topology(kind: str, n: int, seed: int = 0, *,
                   prob: float | None = None, hubs: int = 1) -> Graph:
    """Construct a named topology deterministically.

    Parameters
    ----------
    kind : str
        One of ``ring``, ``star``, ``hub_leaf``, ``random_connected``
        (``from_edge_list`` graphs come from ``load_edge_list``).
    n : int
        Node count, n >= 2.
    seed : int
        Seed for the ``random_connected`` sampler; ignored by the
        deterministic kinds, so every kind is a pure function of its
        arguments.
    prob : float
        Edge probability in (0, 1] for ``random_connected``, which draws up
        to ``MAX_ATTEMPTS`` samples until one is connected.
    hubs : int
        For ``hub_leaf``: number of mutually connected hub nodes; remaining
        nodes are leaves attached round-robin. ``hubs=1`` is a star with one
        center.
    """
    if n < 2:
        raise ValueError(f"build_topology requires n >= 2, got {n}")
    if kind == "ring":
        e = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            e.append((0, n - 1))
        return Graph(n, tuple(e))
    if kind == "star":
        return Graph(n, tuple((0, j) for j in range(1, n)))
    if kind == "hub_leaf":
        if not (1 <= hubs < n):
            raise ValueError(f"hub_leaf needs 1 <= hubs < n, got hubs={hubs}, n={n}")
        e = [(i, j) for i in range(hubs) for j in range(i + 1, hubs)]
        for leaf in range(hubs, n):
            e.append(((leaf - hubs) % hubs, leaf))
        return Graph(n, tuple(e))
    if kind == "random_connected":
        if prob is None or not (0.0 < prob <= 1.0):
            raise ValueError(f"random_connected needs edge probability in (0, 1], got {prob}")
        rng = np.random.default_rng(seed)
        for _ in range(MAX_ATTEMPTS):
            mask = rng.random((n, n)) < prob
            e = tuple((i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j])
            try:
                return Graph(n, e)
            except NotConnected:
                continue
        raise NotConnected(f"no connected sample in {MAX_ATTEMPTS} attempts (n={n}, prob={prob})")
    raise ValueError(f"unknown topology kind {kind!r}")


def incidence_matrix(g: Graph) -> np.ndarray:
    """Edge-by-node incidence matrix: row k has +1 at the low endpoint of
    edge k and -1 at the high endpoint."""
    M = np.zeros((g.m, g.n))
    for k, (i, j) in enumerate(g.edges):
        M[k, i] = 1.0
        M[k, j] = -1.0
    return M


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian built from degrees and adjacency (independent of the
    incidence construction, which must reproduce it as M^T M)."""
    L = np.diag(g.degree.astype(float))
    for i, j in g.edges:
        L[i, j] -= 1.0
        L[j, i] -= 1.0
    return L


def load_edge_list(path, n: int) -> Graph:
    """Load a whitespace-separated ``i j`` edge list (0-based, one per line)
    over nodes 0 .. n-1.

    Blank lines and ``#`` comments are skipped. The resulting graph is fully
    validated.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'i j', got {raw.rstrip()!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: non-integer node id") from exc
            edges.append((i, j))
    return Graph(n, tuple(edges))


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def apply_Mt(g: Graph, U) -> np.ndarray:
    """Transpose of A's edge block for an (m, p) edge array: each edge row
    is added at its low endpoint and subtracted at its high endpoint."""
    out = np.zeros((g.n, U.shape[1]))
    np.add.at(out, g.low, U)
    np.subtract.at(out, g.high, U)
    return out


def residual(g: Graph, X, Y) -> np.ndarray:
    """A x + B y for (n, p) blocks X and Y, as the (m+n, p) block array:
    row k < m is the edge difference X[low_k] - X[high_k], row m + i is
    X[i] - Y[i]. Its ravel is the stacked vector of the dense operators."""
    return np.concatenate([X[g.low] - X[g.high], X - Y])


def _guard_dense(g: Graph, p: int) -> None:
    if g.n * p > DENSE_LIMIT:
        raise ValueError(f"dense matrices need n*p <= {DENSE_LIMIT}, got {g.n * p}")


def dense_A(g: Graph, p: int) -> np.ndarray:
    """The edge-plus-identity operator A at block size p, as a
    verification oracle."""
    _guard_dense(g, p)
    return np.vstack([np.kron(incidence_matrix(g), np.eye(p)), np.eye(g.n * p)])


def dense_B(g: Graph, p: int) -> np.ndarray:
    """The operator B (zeros over the negated identity) at block size p."""
    _guard_dense(g, p)
    return np.vstack([np.zeros((g.m * p, g.n * p)), -np.eye(g.n * p)])


def dense_AtA(g: Graph, p: int) -> np.ndarray:
    """A^T A = L kron I_p + I at block size p."""
    _guard_dense(g, p)
    return np.kron(laplacian(g), np.eye(p)) + np.eye(g.n * p)


def smallest_singular_sq_A(g: Graph) -> float:
    """Smallest squared singular value of the edge-plus-identity operator,
    from the Laplacian spectrum shifted by one. Equals 1 on every connected
    graph."""
    return singular_sq_extremes(g)[0]


def singular_sq_extremes(g: Graph) -> tuple:
    """(smallest, largest) squared singular values via the Laplacian spectrum."""
    eigs = np.linalg.eigvalsh(laplacian(g))
    return float(eigs[0] + 1.0), float(eigs[-1] + 1.0)
