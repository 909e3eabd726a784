"""Per-agent composite objectives with stochastic first-order and prox oracles.

Each agent holds a finite local dataset of (feature, label) samples. The
smooth local loss is the empirical mean of a per-sample loss plus an optional
bounded nonconvex penalty ``alpha * sum_j x_j^2 / (1 + x_j^2)``; sampling is
uniform with replacement over the local dataset, so the full-data gradient is
the exact expectation of the stochastic one. The nonsmooth part is an l1
regularizer (or nothing) handled through its proximal map.

Smooth loss kinds
-----------------
least_squares     0.5 * (a.x - b)^2
logistic          log(1 + exp(-b * a.x)) with labels in {-1, +1}
nonconvex_robust  0.5 * r^2 / (1 + r^2) with r = a.x - b
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SMOOTH_KINDS = ("least_squares", "logistic", "nonconvex_robust")
REGULARIZERS = ("l1", "none")

# Upper bound on the second derivative of the per-sample scalar loss.
_CURVATURE = {"least_squares": 1.0, "logistic": 0.25, "nonconvex_robust": 1.0}

# Standard deviation of the Gaussian noise ``make_problem`` adds to the margins.
NOISE_STD = 0.1

# Values per temporary in the passes over every sample: 64 KiB of float64,
# below glibc's initial mmap threshold (128 KiB). While that threshold stays
# low, as it does when a build frees no sample-sized block, larger
# temporaries are mapped and faulted afresh on every call.
SLICE_VALUES = 8192


@dataclass
class CompositeProblem:
    """n-agent composite objective: smooth stochastic loss plus l1 or nothing.

    Built from the samples in the layout it stores: ``stacked_features``, one
    C-contiguous (N, p) float array, ``stacked_labels``, the (N,) targets,
    and ``sizes``, the per-agent sample counts N_i (each at least one,
    summing to N). Agent i owns rows ``offsets[i]:offsets[i + 1]``; the
    (n + 1,) ``offsets`` is the only array the constructor adds to the two
    sample arrays, which it keeps as given when they are already C-ordered
    float64. A sample's one address is its stacked row, which
    ``draw_batch`` returns and every oracle takes. ``dataclasses.replace``
    reuses the sample arrays and recomputes the cached ``smoothness``.
    Immutable after construction; all oracle calls are pure
    functions of their arguments.
    """

    kind: str
    stacked_features: np.ndarray
    stacked_labels: np.ndarray
    sizes: list
    regularizer: str = "none"
    l1_weight: float = 0.0
    alpha: float = 0.0
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in SMOOTH_KINDS:
            raise ValueError(f"unknown smooth loss kind {self.kind!r}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if self.l1_weight < 0 or self.alpha < 0:
            raise ValueError("l1_weight and alpha must be nonnegative")
        X = self.stacked_features = np.ascontiguousarray(self.stacked_features, float)
        y = self.stacked_labels = np.ascontiguousarray(self.stacked_labels, float)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError("need (N, p) features and (N,) labels")
        sizes = np.asarray(self.sizes, dtype=int)
        if sizes.ndim != 1 or not sizes.size or sizes.sum() != X.shape[0]:
            raise ValueError(f"need per-agent sizes summing to N={X.shape[0]}")
        if (sizes < 1).any():
            raise ValueError(f"agent {np.argmin(sizes)} has no samples")
        self.offsets = np.cumsum([0, *sizes.tolist()])

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @property
    def p(self) -> int:
        return self.stacked_features.shape[1]

    def local_size(self, i: int) -> int:
        return int(self.offsets[i + 1] - self.offsets[i])

    @cached_property
    def smoothness(self) -> float:
        return estimate_smoothness(self)


def _row_slices(start: int, stop: int, width: int):
    """Slices of consecutive rows covering rows start to stop, each short
    enough that a (rows, width) temporary holds at most ``SLICE_VALUES``
    values."""
    step = max(1, SLICE_VALUES // width)
    return (slice(s, min(s + step, stop)) for s in range(start, stop, step))


def _check_agent(prob: CompositeProblem, i: int) -> None:
    if not (0 <= i < prob.n):
        raise ValueError(f"agent {i} out of range (n={prob.n})")


def _local_samples(prob: CompositeProblem, i: int):
    """Agent i's (N_i, p) rows and (N_i,) labels, views of the stacked
    arrays; the agent is checked."""
    _check_agent(prob, i)
    rows = slice(prob.offsets[i], prob.offsets[i + 1])
    return prob.stacked_features[rows], prob.stacked_labels[rows]


def _penalty_value(prob: CompositeProblem, x: np.ndarray):
    """The penalty at each row of x, kept as a last axis of length one."""
    if prob.alpha == 0.0:
        return 0.0
    x2 = x * x
    return prob.alpha * np.sum(x2 / (1.0 + x2), axis=-1, keepdims=True)


def _penalty_gradient(prob: CompositeProblem, x: np.ndarray) -> np.ndarray:
    if prob.alpha == 0.0:
        return np.zeros_like(x)
    return prob.alpha * 2.0 * x / (1.0 + x * x) ** 2


def _sample_losses(prob: CompositeProblem, A: np.ndarray, b: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Losses at x of the sample rows (A, b), penalty included, shape
    (rows,); leading axes are batch axes as in ``_sample_gradients``."""
    margins = np.matmul(A, x[..., None])[..., 0]
    if prob.kind == "least_squares":
        data = 0.5 * (margins - b) ** 2
    elif prob.kind == "logistic":
        data = np.logaddexp(0.0, -b * margins)
    else:
        r2 = (margins - b) ** 2
        data = 0.5 * r2 / (1.0 + r2)
    return data + _penalty_value(prob, x)


def _loss_weights(kind: str, margins: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivative of each per-sample data loss with respect to its margin
    a.x, so that the data gradient of sample (a, b) is ``weight * a``."""
    if kind == "least_squares":
        return margins - b
    if kind == "logistic":
        # sigmoid(-z) via tanh keeps exp overflow out of the picture
        return -b * 0.5 * (1.0 + np.tanh(-0.5 * (b * margins)))
    r = margins - b
    return r / (1.0 + r * r) ** 2


def _sample_gradients(prob: CompositeProblem, A: np.ndarray, b: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Gradients at x of the per-sample losses of the rows (A, b), penalty
    included, shape (rows, p). Leading axes are batch axes: with A of shape
    (n, rows, p), b (n, rows) and x (n, p), entry i holds the gradients of
    rows (A[i], b[i]) at x[i], equal bit for bit to the call on entry i
    alone, and the result has shape (n, rows, p)."""
    w = _loss_weights(prob.kind, np.matmul(A, x[..., None])[..., 0], b)
    return w[..., None] * A + _penalty_gradient(prob, x)[..., None, :]


def per_sample_gradients(prob: CompositeProblem, i: int, x) -> np.ndarray:
    """Per-sample gradients at x, penalty included, shape (N_i, p)."""
    return _sample_gradients(prob, *_local_samples(prob, i), np.asarray(x, dtype=float))


def sampled_loss(prob: CompositeProblem, i: int, x, rows: np.ndarray) -> float:
    """Mean loss at x over agent i's stacked sample rows ``rows`` (the
    quantity whose gradient the stochastic oracle returns; used by the
    finite-difference check). The agent is checked; ``rows`` comes from
    ``draw_batch(prob, i, ...)`` and is not re-checked."""
    _check_agent(prob, i)
    A, b = prob.stacked_features[rows], prob.stacked_labels[rows]
    return float(np.mean(_sample_losses(prob, A, b, np.asarray(x, dtype=float))))


def _mean_gradient(prob: CompositeProblem, A: np.ndarray, b: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """Mean over the sample rows of the per-sample gradients at x, computed
    in the row buffer A, which the caller has just gathered and which is
    overwritten. Rows run along axis 0: A is (rows, p), b (rows,) and x
    (p,), or, stacked over agents, A is (rows, n, p), b (rows, n) and x
    (n, p). Equal bit for bit to ``_sample_gradients(...).mean(axis=-2)``
    on the same rows as long as numpy sums each entry over the rows in the
    same order as there: one after another when p > 1 and A's p axis is
    contiguous, pairwise when p = 1 and A's rows axis is contiguous."""
    margins = np.matmul(A.swapaxes(0, -2), x[..., None])[..., 0]
    w = _loss_weights(prob.kind, margins.T, b)
    A *= w[..., None]
    if prob.alpha != 0.0:
        A += _penalty_gradient(prob, x)
    g = A.sum(axis=0)
    g /= A.shape[0]
    return g


def stochastic_gradient(prob: CompositeProblem, i: int, x, rows: np.ndarray) -> np.ndarray:
    """Mean of agent i's per-sample gradients at x over its stacked sample
    rows ``rows``. The agent is checked; ``rows`` comes from
    ``draw_batch(prob, i, ...)`` and is not re-checked. On all of agent i's
    rows in order, ``offsets[i] + np.arange(N_i)``, this reproduces
    ``full_gradient`` bit for bit."""
    _check_agent(prob, i)
    return _mean_gradient(prob, prob.stacked_features[rows],
                          prob.stacked_labels[rows], np.asarray(x, dtype=float))


def _every_agent(prob: CompositeProblem, X, evaluate, *shape) -> np.ndarray:
    """(n, *shape) array whose entry i is agent i's entry of ``evaluate(rows,
    X[agents])``, called once per run of consecutive agents that share a
    local size N: row j of the (agents, N) ``rows`` holds every stacked row
    of the run's j-th agent. Equal local sizes make one call."""
    X = np.asarray(X, dtype=float)
    out = np.empty((prob.n, *shape))
    first = 0
    for lo, hi, N in _equal_size_runs(prob.offsets.tolist()):
        rows = np.arange(lo, hi).reshape(-1, N)
        agents = slice(first, first + len(rows))
        out[agents] = evaluate(rows, X[agents])
        first = agents.stop
    return out


def batch_gradients(prob: CompositeProblem, X, rows) -> np.ndarray:
    """Row i: agent i's mean per-sample gradient at X[i] over the stacked
    sample rows ``rows[i]`` (indices into ``stacked_features``), for an
    (n, p) ``X`` and an (n, b) ``rows``. Row i equals ``stochastic_gradient``
    of agent i on the same rows ``rows[i]`` bit for bit. With
    ``rows=None`` every sample is a row: row i is agent i's exact local
    gradient, equal to ``full_gradient`` bit for bit."""
    if rows is None:
        return _every_agent(prob, X, lambda r, Xg: batch_gradients(prob, Xg, r),
                            prob.p)
    rows = np.asarray(rows)
    if prob.p > 1:
        # gathered round-major, so that A *= w and the sum over each
        # agent's rows run over contiguous (n, p) slabs
        A = np.take(prob.stacked_features, rows.T, axis=0)
    else:
        # agent-major, so that each agent's rows are summed in the order
        # of its own oracle
        A = np.take(prob.stacked_features, rows, axis=0).transpose(1, 0, 2)
    return _mean_gradient(prob, A, np.take(prob.stacked_labels, rows.T),
                          np.asarray(X, dtype=float))


def full_gradient(prob: CompositeProblem, i: int, x) -> np.ndarray:
    """Exact local gradient, the reference oracle for the stacked exact pass
    ``batch_gradients(prob, X, None)`` that runs use: the kernel on a copy of
    agent i's rows (the values and C layout an in-order gather gives)."""
    A, b = _local_samples(prob, i)
    return _mean_gradient(prob, A.copy(), b, np.asarray(x, dtype=float))


def _equal_size_runs(offsets: list) -> list:
    """(first row, stop row, N) per run of consecutive agents that share the
    local size N, from the agents' row bounds ``offsets``."""
    runs = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        if runs and runs[-1][2] == hi - lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, hi - lo])
    return runs


def global_mean_gradient(prob: CompositeProblem, xbar) -> np.ndarray:
    """(1/n) sum_i of the local full gradients, all evaluated at the same
    point, in one pass over the stacked samples: each row of agent i enters
    the weighted row sum with weight 1 / (n N_i). The (N,) margins are
    overwritten with the weights ``SLICE_VALUES`` rows at a time and summed
    in a single ``w @ X``, with the bits of the unsliced formula. The
    divisor is taken per run of consecutive agents of one size, so equal
    local sizes make one run whatever n is."""
    xbar = np.asarray(xbar, dtype=float)
    X, y = prob.stacked_features, prob.stacked_labels
    w = X @ xbar
    for lo, hi, N in _equal_size_runs(prob.offsets.tolist()):
        for rows in _row_slices(lo, hi, 1):
            np.divide(_loss_weights(prob.kind, w[rows], y[rows]), prob.n * N,
                      out=w[rows])
    return w @ X + _penalty_gradient(prob, xbar)


def smooth_value(prob: CompositeProblem, i: int, x) -> float:
    """Local smooth objective f_i(x): mean per-sample loss plus penalty."""
    return float(np.mean(_sample_losses(prob, *_local_samples(prob, i),
                                        np.asarray(x, dtype=float))))


def smooth_values(prob: CompositeProblem, X) -> np.ndarray:
    """Entry i: f_i(X[i]), equal to ``smooth_value`` bit for bit."""
    return _every_agent(prob, X, lambda r, Xg: _sample_losses(
        prob, prob.stacked_features[r], prob.stacked_labels[r], Xg).mean(axis=-1))


def h_values(prob: CompositeProblem, Y) -> np.ndarray:
    """Entry i: agent i's nonsmooth value at row i of the (n, p) ``Y``,
    l1_weight * ||Y[i]||_1, or zero (all agents share one regularizer)."""
    Y = np.asarray(Y, dtype=float)
    if prob.regularizer == "none":
        return np.zeros(Y.shape[0])
    return prob.l1_weight * np.sum(np.abs(Y), axis=1)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """sign(v) * max(|v| - t, 0), in one buffer besides sign(v)."""
    out = np.abs(v)
    out -= t
    np.maximum(out, 0.0, out=out)
    out *= np.sign(v)
    return out


def prox_h(prob: CompositeProblem, v, c: float) -> np.ndarray:
    """Proximal map of the agents' shared regularizer at v with scale c > 0,
    for one agent's vector or a stacked (n, p) ``v``, row by row.

    For l1 this is componentwise soft thresholding at ``c * l1_weight``; for
    no regularizer it is the identity.
    """
    if c <= 0:
        raise ValueError(f"prox scale must be positive, got {c}")
    v = np.asarray(v, dtype=float)
    if prob.regularizer == "none":
        return v.copy()
    return soft_threshold(v, c * prob.l1_weight)


def estimate_smoothness(prob: CompositeProblem) -> float:
    """Upper bound on the per-sample gradient Lipschitz constant.

    The data term contributes ``curvature(kind) * max_samples ||a||^2``
    (curvature 1 for least_squares and nonconvex_robust, 1/4 for logistic);
    the bounded penalty contributes ``2 * alpha``. Bounding each sample's
    curvature bounds the mean-squared version as well. The squared row
    norms are taken in slices of ``SLICE_VALUES // p`` rows, with the bits
    of the unsliced formula.
    """
    X = prob.stacked_features
    worst = max(float(np.max(np.sum(X[rows] * X[rows], axis=1)))
                for rows in _row_slices(0, *X.shape))
    return _CURVATURE[prob.kind] * worst + 2.0 * prob.alpha


def empirical_sigma_sq(prob: CompositeProblem, xs) -> float:
    """Stacked empirical gradient variance: sum over agents of the mean
    squared deviation of per-sample gradients from the local full gradient,
    each agent evaluated at its own point ``xs[i]`` of the (n, p) ``xs``."""

    def spread(rows, Xg):
        G = _sample_gradients(prob, prob.stacked_features[rows],
                              prob.stacked_labels[rows], Xg)
        D = G - G.mean(axis=1, keepdims=True)
        return np.mean(np.sum(D ** 2, axis=2), axis=1)
    return sum(_every_agent(prob, xs, spread).tolist())


def draw_batch(prob: CompositeProblem, i: int, rng, size: int) -> np.ndarray:
    """Uniform-with-replacement batch from agent i's local dataset: an int64
    array of ``size`` stacked sample rows in [offsets[i], offsets[i + 1]).
    The agent and the size are checked here, once; the oracles take the
    array as it is."""
    _check_agent(prob, i)
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    return prob.offsets[i] + rng.integers(0, prob.local_size(i), size=size)


def make_problem(kind: str, n: int, p: int, samples_per_agent: int, seed: int, *,
                 regularizer: str = "none", l1_weight: float = 0.0,
                 alpha: float = 0.0, noniid: bool = False) -> CompositeProblem:
    """Synthesize an n-agent problem with a planted sparse ground truth,
    whose margins carry Gaussian noise of standard deviation ``NOISE_STD``.

    Features are Gaussian scaled by 1/sqrt(p) so per-sample curvature stays
    O(1). The labels are built in the margins' array: the noise is added to
    it, and for logistic each entry is then overwritten with its sign (+1
    at zero), so the build holds the features, the labels and one label-sized
    draw of noise at most. With ``noniid=True`` samples are sorted by label
    before agent i takes the i-th block of ``samples_per_agent`` rows
    (label partitioning), a gather into one new copy of the samples that
    the problem keeps. Otherwise a seeded permutation spreads them evenly:
    the rows and labels are shuffled in place, with the same result as
    gathering them by ``rng.permutation(N)``, and the problem keeps the
    generated arrays themselves.
    """
    if n < 1 or p < 1 or samples_per_agent < 1:
        raise ValueError("n, p and samples_per_agent must be positive")
    rng = np.random.default_rng(seed)
    x_true = np.zeros(p)
    nnz = max(1, p // 4)
    support = rng.choice(p, size=nnz, replace=False)
    x_true[support] = rng.normal(0.0, 1.0, size=nnz)

    N = n * samples_per_agent
    A = rng.standard_normal((N, p))
    A /= np.sqrt(p)
    b = A @ x_true  # noisy margins: the labels, or (logistic) their signs
    noise = rng.standard_normal(N)
    noise *= NOISE_STD
    b += noise
    del noise
    if kind == "logistic":
        neg = b < 0.0  # -0.0 is not below zero, so it maps to +1
        b.fill(1.0)
        b[neg] = -1.0
        del neg

    if noniid:
        order = np.argsort(b, kind="stable")
        A = np.take(A, order, axis=0)  # rebound, so the unordered samples go now
        b = np.take(b, order)
    else:
        # rng.permutation(N) is arange(N) shuffled: replaying the generator
        # state over the rows (one void item each) and then over the labels
        # makes the same swaps in place and leaves the same final state
        state = rng.bit_generator.state
        rng.shuffle(A.view(np.dtype((np.void, A.strides[0]))).reshape(N))
        rng.bit_generator.state = state
        rng.shuffle(b)
    return CompositeProblem(kind, A, b, [samples_per_agent] * n,
                            regularizer=regularizer, l1_weight=l1_weight,
                            alpha=alpha)


def save_dataset(prob: CompositeProblem, csv_path, manifest_path) -> None:
    """Write all samples as CSV rows (features then label) plus a JSON
    manifest mapping agents to row ranges."""
    rows = np.column_stack([prob.stacked_features, prob.stacked_labels])
    np.savetxt(csv_path, rows, delimiter=",", fmt="%.17g")
    ranges = np.column_stack([prob.offsets[:-1], prob.offsets[1:]]).tolist()
    manifest = {"n": prob.n, "p": prob.p, "ranges": ranges}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(csv_path, manifest_path, *, kind: str,
                 regularizer: str = "none", l1_weight: float = 0.0,
                 alpha: float = 0.0) -> CompositeProblem:
    """Rebuild a problem from the CSV + manifest pair written by
    ``save_dataset``; loss configuration is supplied by the caller. Every
    value must be finite, and logistic labels must be -1 or +1. The
    manifest's row ranges are gathered, in agent order, straight into the
    problem's stacked arrays."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest is a JSON {type(manifest).__name__}, "
                         "not an object with keys n, p and ranges")
    for key in ("n", "p", "ranges"):
        if key not in manifest:
            raise ValueError(f"manifest has no {key!r} key")
    try:
        n, p = int(manifest["n"]), int(manifest["p"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest n and p must be integers: {exc}") from exc
    rows = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        raise ValueError(f"CSV row {bad[0][0] + 1}, column {bad[0][1] + 1} "
                         "is not a finite number")
    if rows.shape[1] != p + 1:
        raise ValueError(f"CSV has {rows.shape[1]} columns, manifest says p={p}")
    if kind == "logistic":
        bad = np.flatnonzero(np.abs(rows[:, p]) != 1.0)
        if bad.size:
            raise ValueError(f"CSV row {bad[0] + 1} has logistic label "
                             f"{rows[bad[0], p]:g}, not -1 or +1")
    ranges = manifest["ranges"]
    if not (isinstance(ranges, list) and len(ranges) == n):
        raise ValueError(f"manifest ranges must be a list of n={n} pairs")
    spans = []
    for entry in ranges:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(v) is int for v in entry)):
            raise ValueError(f"manifest range {entry!r} is not a [start, stop] "
                             "pair of integers")
        start, stop = entry
        if not (0 <= start < stop <= rows.shape[0]):
            raise ValueError(f"manifest range [{start}, {stop}) out of bounds")
        spans.append(np.arange(start, stop))
    gather = np.concatenate(spans)
    return CompositeProblem(kind, rows[gather, :p], rows[gather, p],
                            [len(s) for s in spans], regularizer=regularizer,
                            l1_weight=l1_weight, alpha=alpha)
