import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmadmm.problems import (NOISE_STD, SMOOTH_KINDS, CompositeProblem,
                              _CURVATURE, _equal_size_runs, _local_samples,
                              _loss_weights, _penalty_gradient,
                              batch_gradients, draw_batch, empirical_sigma_sq,
                              estimate_smoothness,
                              full_gradient, global_mean_gradient,
                              h_values, load_dataset, make_problem,
                              _sample_gradients, per_sample_gradients, prox_h,
                              sampled_loss, save_dataset, smooth_value,
                              smooth_values, soft_threshold, stochastic_gradient)


def single_sample_problem(a, b, **kw):
    a = np.asarray(a, dtype=float)
    return CompositeProblem("least_squares", a[None, :], np.array([float(b)]), [1], **kw)


def test_least_squares_single_sample_gradient():
    prob = single_sample_problem([1.0, 2.0], 1.0)
    x = np.array([0.5, -1.0])
    want = np.array([1.0, 2.0]) * (np.dot([1.0, 2.0], x) - 1.0)
    got = stochastic_gradient(prob, 0, x, np.array([0]))
    assert np.allclose(got, want, atol=1e-15)


def test_full_batch_equals_full_gradient_exactly():
    for kind in ("least_squares", "logistic", "nonconvex_robust"):
        prob = make_problem(kind, 3, 4, 12, 5, alpha=0.2)
        x = np.random.default_rng(1).standard_normal(4)
        for i in range(3):
            rows = prob.offsets[i] + np.arange(prob.local_size(i))
            got = stochastic_gradient(prob, i, x, rows)
            assert np.array_equal(got, full_gradient(prob, i, x))


def _fd_gradient(prob, i, x, batch, h=1e-6):
    fd = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[j] = (sampled_loss(prob, i, x + e, batch)
                 - sampled_loss(prob, i, x - e, batch)) / (2 * h)
    return fd


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
def test_gradient_matches_finite_differences(kind):
    prob = make_problem(kind, 2, 5, 10, 3, alpha=0.3)
    rng = np.random.default_rng(7)
    # both agents: agent 1's rows start at offsets[1] = 10, not at 0
    for i in [0, 1] * 3:
        x = rng.standard_normal(5)
        batch = draw_batch(prob, i, rng, 4)
        g = stochastic_gradient(prob, i, x, batch)
        fd = _fd_gradient(prob, i, x, batch)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(fd))


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
def test_batch_gradient_is_indexed_per_sample_mean(kind):
    prob = make_problem(kind, 2, 6, 40, 8, alpha=0.3)
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(6)
        batch = draw_batch(prob, 1, rng, int(rng.integers(1, 33)))
        got = stochastic_gradient(prob, 1, x, batch)
        want = _sample_gradients(prob, prob.stacked_features, prob.stacked_labels,
                                 x)[batch].mean(axis=0)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _grid_prox(v, c, lam, step=1e-4):
    grid = np.arange(-4.0, 4.0 + step / 2, step)
    return grid[np.argmin(lam * np.abs(grid) + (grid - v) ** 2 / (2 * c))]


def test_prox_matches_grid_search_hand_cases():
    prob = single_sample_problem([1.0], 0.0, regularizer="l1", l1_weight=0.5)
    got = prox_h(prob, np.array([2.0]), 1.0)[0]
    assert abs(got - _grid_prox(2.0, 1.0, 0.5)) <= 2e-4
    assert abs(got - 1.5) <= 1e-12

    prob2 = single_sample_problem([1.0], 0.0, regularizer="l1", l1_weight=1.0)
    got2 = prox_h(prob2, np.array([0.3]), 1.0)[0]
    assert abs(got2 - _grid_prox(0.3, 1.0, 1.0)) <= 2e-4
    assert got2 == 0.0


def test_prox_identity_for_no_regularizer():
    prob = single_sample_problem([1.0], 0.0)
    v = np.array([3.0, -2.0, 0.0])[:1]
    assert np.array_equal(prox_h(prob, v, 0.7), v)


def test_prox_rejects_nonpositive_scale():
    prob = single_sample_problem([1.0], 0.0, regularizer="l1", l1_weight=1.0)
    with pytest.raises(ValueError, match="prox scale must be positive, got 0.0"):
        prox_h(prob, np.array([1.0]), 0.0)


def _prox_optimality_residual(u, v, c, lam):
    # 0 in lam * sign(u) + (u - v) / c, componentwise
    slack = (v - u) / c
    active = np.abs(u) > 0
    res = np.where(active, np.abs(slack - lam * np.sign(u)),
                   np.maximum(np.abs(slack) - lam, 0.0))
    return float(res.max())


def test_prox_optimality_condition_random():
    rng = np.random.default_rng(12)
    prob = single_sample_problem([1.0], 0.0, regularizer="l1", l1_weight=1.0)
    for _ in range(100):
        lam = float(rng.uniform(0.0, 2.0))
        c = float(rng.uniform(0.05, 3.0))
        v = rng.uniform(-3, 3, size=4)
        trial = CompositeProblem("least_squares", prob.stacked_features,
                                 prob.stacked_labels, prob.sizes,
                                 regularizer="l1", l1_weight=lam)
        u = prox_h(trial, v, c)
        assert _prox_optimality_residual(u, v, c, lam) <= 1e-10


def test_replace_rebuilds_the_smoothness():
    # the smoothness is cached per problem; a problem built by
    # dataclasses.replace must estimate its own
    prob = make_problem("least_squares", 2, 3, 10, 4)
    before = prob.smoothness
    scaled = dataclasses.replace(prob, stacked_features=3.0 * prob.stacked_features)
    assert scaled.smoothness == estimate_smoothness(scaled)
    assert scaled.smoothness == pytest.approx(9.0 * before, rel=1e-12)


def test_estimate_smoothness_formulas():
    ls = CompositeProblem("least_squares", np.array([[2.0, 0.0], [1.0, 0.0]]),
                          np.zeros(2), [2])
    assert estimate_smoothness(ls) == 4.0

    logi = CompositeProblem("logistic", np.array([[2.0, 0.0]]), np.ones(1), [1])
    assert estimate_smoothness(logi) == 1.0

    zero = CompositeProblem("least_squares", np.zeros((3, 2)), np.zeros(3), [3],
                            alpha=0.5)
    assert estimate_smoothness(zero) == 1.0  # 2 * alpha


def test_unbiasedness_monte_carlo():
    prob = make_problem("logistic", 2, 3, 25, 9, alpha=0.1)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    want = full_gradient(prob, 0, x)
    draws = np.array([stochastic_gradient(prob, 0, x, draw_batch(prob, 0, rng, 1))
                      for _ in range(10000)])
    sigma_hat = draws.std(axis=0, ddof=1)
    dev = np.abs(draws.mean(axis=0) - want)
    assert np.all(dev <= 5.0 * sigma_hat / np.sqrt(10000) + 1e-12)


def test_mean_squared_smoothness_bound():
    prob = make_problem("nonconvex_robust", 2, 4, 15, 6, alpha=0.4)
    L = estimate_smoothness(prob)
    rng = np.random.default_rng(8)
    for _ in range(100):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        for i in range(2):
            gap = per_sample_gradients(prob, i, x) - per_sample_gradients(prob, i, y)
            msq = float(np.mean(np.sum(gap * gap, axis=1)))
            assert msq <= L * L * np.sum((x - y) ** 2) + 1e-12


def test_global_mean_gradient_identical_agents():
    A = np.random.default_rng(3).standard_normal((6, 3))
    b = np.zeros(6)
    prob = CompositeProblem("least_squares", np.vstack([A, A]), np.concatenate([b, b]),
                            [6, 6])
    x = np.array([1.0, -1.0, 0.5])
    assert np.allclose(global_mean_gradient(prob, x), full_gradient(prob, 0, x),
                       atol=1e-15)


def test_global_mean_gradient_brute_force():
    prob = make_problem("least_squares", 3, 2, 7, 4, alpha=0.2)
    x = np.array([0.3, -0.8])
    brute = np.zeros(2)
    for i in range(3):
        brute += per_sample_gradients(prob, i, x).mean(axis=0)
    brute /= 3
    assert np.allclose(global_mean_gradient(prob, x), brute, atol=1e-14)


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
def test_global_mean_gradient_matches_per_agent_mean_unequal_sizes(kind):
    rng = np.random.default_rng(17)
    sizes = (3, 7, 1)
    feats = [rng.standard_normal((N, 4)) for N in sizes]
    labs = [np.sign(rng.standard_normal(N)) for N in sizes]
    prob = CompositeProblem(kind, np.vstack(feats), np.concatenate(labs), sizes,
                            alpha=0.3)
    for _ in range(3):
        x = rng.standard_normal(4)
        want = sum(full_gradient(prob, i, x) for i in range(3)) / 3
        got = global_mean_gradient(prob, x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
@pytest.mark.parametrize("b", [1, 3, 32])
def test_batch_gradients_equal_per_agent_oracle(kind, b):
    rng = np.random.default_rng(23)
    sizes = (3, 7, 1)
    feats = [rng.standard_normal((N, 4)) for N in sizes]
    labs = [np.sign(rng.standard_normal(N)) for N in sizes]
    prob = CompositeProblem(kind, np.vstack(feats), np.concatenate(labs), sizes,
                            regularizer="l1", l1_weight=0.05, alpha=0.3)
    for _ in range(3):
        X = rng.standard_normal((3, 4))
        rows = np.array([draw_batch(prob, i, rng, b) for i in range(3)])
        want = np.array([stochastic_gradient(prob, i, X[i], rows[i])
                         for i in range(3)])
        assert np.array_equal(batch_gradients(prob, X, rows), want)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", SMOOTH_KINDS)
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_exact_passes_equal_the_per_agent_oracles(kind, alpha, ragged_problem):
    # the exact-data passes evaluate every agent at once when all local
    # sizes are equal, and one run of consecutive equal sizes at a time on a
    # ragged dataset; either way each agent's entry must be its own oracle's
    probs = [make_problem(kind, n, p, N, 3, alpha=alpha)
             for n in (2, 8, 16) for p in (1, 2, 3, 5, 20)
             for N in (1, 7, 20, 40, 200)]
    probs += [ragged_problem(kind, p, alpha) for p in (1, 2, 3, 5, 20)]
    assert [len(_equal_size_runs(prob.offsets.tolist()))
            for prob in probs[-5:]] == [5] * 5
    rng = np.random.default_rng(19)
    for prob in probs:
        X = 3.0 * rng.standard_normal((prob.n, prob.p))
        G = batch_gradients(prob, X, None)
        F = smooth_values(prob, X)
        for i in range(prob.n):
            assert _same_bits(G[i], full_gradient(prob, i, X[i]))
            assert F[i] == smooth_value(prob, i, X[i])
        spreads = [per_sample_gradients(prob, i, X[i]) for i in range(prob.n)]
        want = sum(float(np.mean(np.sum((S - S.mean(axis=0)) ** 2, axis=1)))
                   for S in spreads)
        assert empirical_sigma_sq(prob, X) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["least_squares", "logistic", "nonconvex_robust"])
@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("p", [1, 4])
def test_in_place_kernel_equals_per_sample_mean(kind, alpha, b, p):
    # both oracles overwrite a freshly gathered row buffer; each must equal
    # the mean of the per-sample gradients bit for bit (signed zeros too)
    # and leave the stacked samples as they were
    rng = np.random.default_rng(31)
    sizes = (3, 7, 1, 40)
    feats = [rng.standard_normal((N, p)) * np.exp(rng.standard_normal((N, p)))
             for N in sizes]
    feats[1][:, 0] = 0.0
    labs = [np.sign(rng.standard_normal(N)) if kind == "logistic"
            else rng.standard_normal(N) for N in sizes]
    prob = CompositeProblem(kind, np.vstack(feats), np.concatenate(labs), sizes,
                            alpha=alpha)
    F, L = prob.stacked_features.copy(), prob.stacked_labels.copy()
    for _ in range(3):
        X = 3.0 * rng.standard_normal((4, p))
        rows = np.array([draw_batch(prob, i, rng, b) for i in range(4)])
        want = _sample_gradients(prob, F[rows], L[rows], X).mean(axis=-2)
        got = batch_gradients(prob, X, rows)
        assert np.array_equal(got, want) and _same_bits(got, want)
        for i in range(4):
            want_i = _sample_gradients(prob, F[rows[i]], L[rows[i]], X[i]).mean(axis=-2)
            got_i = stochastic_gradient(prob, i, X[i], rows[i])
            assert np.array_equal(got_i, want_i) and _same_bits(got_i, want_i)
            assert _same_bits(got_i, got[i])
            full = per_sample_gradients(prob, i, X[i]).mean(axis=0)
            assert _same_bits(full_gradient(prob, i, X[i]), full)
    assert np.array_equal(prob.stacked_features, F)
    assert np.array_equal(prob.stacked_labels, L)


def test_soft_threshold_and_prox_equal_the_formula_bit_for_bit():
    t = 0.25
    v = np.array([0.0, -0.0, t, -t, np.nextafter(t, 1), -np.nextafter(t, 1),
                  0.1, -0.1, 3.0, -3.0, 1e300, -1e300, 1e-300, -1e-300])
    formula = np.sign(v) * np.maximum(np.abs(v) - t, 0)
    for got in (soft_threshold(v, t), soft_threshold(v.reshape(2, 7), t).ravel()):
        assert np.array_equal(got, formula) and _same_bits(got, formula)
    prob = make_problem("least_squares", 2, 7, 3, 0, regularizer="l1", l1_weight=0.5)
    V = v.reshape(2, 7)
    for got, want in ((prox_h(prob, V, 0.5), formula.reshape(2, 7)),
                      (prox_h(prob, V[1], 0.5), formula[7:])):
        assert np.array_equal(got, want) and _same_bits(got, want)
    assert np.signbit(v[1])  # the input is left as it was


def _assert_stacked_views(prob, sizes):
    assert list(np.diff(prob.offsets)) == list(sizes)
    assert prob.offsets[0] == 0 and prob.offsets[-1] == prob.stacked_features.shape[0]
    assert prob.stacked_features.shape == (sum(sizes), prob.p)
    assert prob.stacked_labels.shape == (sum(sizes),)
    assert prob.stacked_features.flags.c_contiguous


def test_samples_are_stacked_views(tmp_path):
    prob = make_problem("logistic", 3, 4, 6, 9, noniid=True)
    _assert_stacked_views(prob, (6, 6, 6))
    # replace keeps the very sample arrays and rebuilds only the derived ones
    rebuilt = dataclasses.replace(prob, l1_weight=0.5, regularizer="l1")
    _assert_stacked_views(rebuilt, (6, 6, 6))
    assert rebuilt.stacked_features is prob.stacked_features
    assert rebuilt.stacked_labels is prob.stacked_labels

    rng = np.random.default_rng(4)
    sizes = (3, 7, 1)
    odd = CompositeProblem("least_squares", rng.standard_normal((11, 2)),
                           rng.standard_normal(11), sizes)
    _assert_stacked_views(odd, sizes)
    csv, manifest = tmp_path / "data.csv", tmp_path / "manifest.json"
    save_dataset(odd, csv, manifest)
    loaded = load_dataset(csv, manifest, kind="least_squares")
    _assert_stacked_views(loaded, sizes)
    assert np.array_equal(loaded.stacked_features, odd.stacked_features)
    assert np.array_equal(loaded.stacked_labels, odd.stacked_labels)
    assert np.array_equal(loaded.offsets, odd.offsets)

    # ranges listed out of row order are gathered in agent order
    manifest.write_text(json.dumps({"n": 3, "p": 2, "ranges": [[10, 11], [0, 3], [3, 10]]}))
    swapped = load_dataset(csv, manifest, kind="least_squares")
    _assert_stacked_views(swapped, (1, 3, 7))
    for i, j in enumerate((2, 0, 1)):
        for got, want in zip(_local_samples(swapped, i), _local_samples(odd, j)):
            assert np.array_equal(got, want)


SHAPES = r"\(N, p\) features and \(N,\) labels"


@pytest.mark.parametrize("features,labels,sizes,message", [
    (np.ones((5, 3)), np.ones(5), [2, 2], "sizes summing to N=5"),
    (np.ones((5, 3)), np.ones(5), [], "sizes summing to N=5"),
    (np.ones((5, 3)), np.ones(4), [2, 3], SHAPES),
    (np.ones((5, 3)), np.ones((5, 1)), [2, 3], SHAPES),
    (np.ones(5), np.ones(5), [2, 3], SHAPES),
    (np.ones((5, 1, 3)), np.ones(5), [2, 3], SHAPES),
], ids=["sizes-short", "no-agents", "labels-short", "labels-2d", "features-1d",
        "features-3d"])
def test_inconsistent_samples_are_refused(features, labels, sizes, message):
    with pytest.raises(ValueError, match=message):
        CompositeProblem("least_squares", features, labels, sizes)


def test_agent_without_samples_is_refused():
    with pytest.raises(ValueError, match="agent 1 has no samples"):
        CompositeProblem("least_squares", np.ones((2, 3)), np.ones(2), [2, 0])


def _traced_peak(build):
    """(result, peak bytes traced by tracemalloc while ``build()`` ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _gathered_build(kind, n, p, samples_per_agent, seed):
    """make_problem's iid build as the gather by rng.permutation it replays
    in place: the reference the shuffled build must equal bit for bit."""
    rng = np.random.default_rng(seed)
    x_true = np.zeros(p)
    nnz = max(1, p // 4)
    support = rng.choice(p, size=nnz, replace=False)
    x_true[support] = rng.normal(0.0, 1.0, size=nnz)
    N = n * samples_per_agent
    A = rng.standard_normal((N, p)) / np.sqrt(p)
    b = A @ x_true + NOISE_STD * rng.standard_normal(N)
    if kind == "logistic":
        b = np.where(b >= 0.0, 1.0, -1.0)
    order = rng.permutation(N)
    return np.take(A, order, axis=0), np.take(b, order)


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("p", [1, 20])
@pytest.mark.parametrize("kind", ["logistic", "least_squares"])
def test_iid_build_equals_the_permutation_gather(kind, p, seed):
    # the in-place shuffle relies on Generator.permutation(N) being
    # arange(N) shuffled: a numpy release that changes this fails here
    prob = make_problem(kind, 5, p, 40, seed)
    A, b = _gathered_build(kind, 5, p, 40, seed)
    assert np.array_equal(prob.stacked_features, A)
    assert np.array_equal(prob.stacked_labels, b)


def test_iid_build_holds_one_copy_of_the_samples():
    prob, peak = _traced_peak(lambda: make_problem("logistic", 8, 20, 5000, 1))
    assert peak <= 1.3 * prob.stacked_features.nbytes


@pytest.mark.parametrize("kind", ["logistic", "least_squares"])
def test_iid_build_makes_the_labels_in_place(kind):
    # the margins' array becomes the labels: besides the features, the
    # build holds the labels and one noise draw, not a third label array
    make_problem(kind, 1, 1, 1, 0)  # lazy imports are not the build's
    prob, peak = _traced_peak(lambda: make_problem(kind, 16, 20, 5000, 1))
    labels = prob.stacked_labels.nbytes
    assert peak <= prob.stacked_features.nbytes + 2.2 * labels


def test_constructor_adds_no_per_row_array():
    prob = make_problem("logistic", 16, 20, 5000, 1)
    X, y = prob.stacked_features, prob.stacked_labels
    built, peak = _traced_peak(lambda: CompositeProblem(
        "logistic", X, y, [5000] * 16, regularizer="l1", l1_weight=1e-4))
    assert built.stacked_features is X and built.stacked_labels is y
    assert peak < 0.01 * (X.nbytes + y.nbytes)


def _one_shot_passes(prob, x):
    """Smoothness and global mean gradient as unsliced formulas."""
    X = prob.stacked_features
    sizes = np.diff(prob.offsets)
    w = _loss_weights(prob.kind, X @ x, prob.stacked_labels)
    w /= np.repeat(prob.n * sizes, sizes).astype(float)
    worst = float(np.max(np.sum(X * X, axis=1)))
    return (_CURVATURE[prob.kind] * worst + 2.0 * prob.alpha,
            w @ X + _penalty_gradient(prob, x))


@pytest.mark.parametrize("sizes", [[5000] * 16, [30000, 3, 20001, 29996]],
                         ids=["equal", "ragged"])
@pytest.mark.parametrize("kind", SMOOTH_KINDS)
def test_sliced_full_data_passes_equal_the_one_shot_formulas(kind, sizes):
    big = make_problem(kind, 1, 20, 80000, 3)
    prob = CompositeProblem(kind, big.stacked_features, big.stacked_labels,
                            sizes, alpha=0.2)
    x = np.random.default_rng(5).standard_normal(20)
    L, g = _one_shot_passes(prob, x)
    assert estimate_smoothness(prob) == L
    assert np.array_equal(global_mean_gradient(prob, x), g)


def test_full_data_passes_hold_no_sample_sized_temporary():
    prob = make_problem("logistic", 16, 20, 5000, 1)
    budget = 0.1 * prob.stacked_features.nbytes
    assert _traced_peak(lambda: estimate_smoothness(prob))[1] <= budget
    x = np.full(20, 0.1)
    assert _traced_peak(lambda: global_mean_gradient(prob, x))[1] <= budget


def test_noniid_partition_is_heterogeneous():
    prob = make_problem("logistic", 4, 6, 30, 13, noniid=True)
    xbar = np.zeros(6)
    mean_grad = global_mean_gradient(prob, xbar)
    spread = sum(np.sum((full_gradient(prob, i, xbar) - mean_grad) ** 2)
                 for i in range(4))
    assert spread > 1e-4


def test_smooth_and_h_values():
    prob = make_problem("least_squares", 2, 3, 5, 1, regularizer="l1",
                        l1_weight=0.5, alpha=0.0)
    Y = np.array([[1.0, -2.0, 0.0], [0.0, 0.5, -0.25]])
    assert h_values(prob, Y).tolist() == pytest.approx([1.5, 0.375])
    x = np.zeros(3)
    want = float(np.mean(0.5 * _local_samples(prob, 0)[1] ** 2))
    assert smooth_value(prob, 0, x) == pytest.approx(want)


def test_dataset_round_trip(tmp_path):
    prob = make_problem("logistic", 3, 4, 8, 21, regularizer="l1",
                        l1_weight=0.01, alpha=0.3, noniid=True)
    save_dataset(prob, tmp_path / "data.csv", tmp_path / "manifest.json")
    loaded = load_dataset(tmp_path / "data.csv", tmp_path / "manifest.json",
                          kind="logistic", regularizer="l1", l1_weight=0.01,
                          alpha=0.3)
    x = np.random.default_rng(0).standard_normal(4)
    for i in range(3):
        assert np.array_equal(_local_samples(loaded, i)[0], _local_samples(prob, i)[0])
        assert np.array_equal(full_gradient(loaded, i, x), full_gradient(prob, i, x))


def test_batch_validation_errors():
    # draw_batch is the one place a batch is checked; the oracle checks the
    # agent and takes the index array as it is
    prob = make_problem("least_squares", 2, 2, 5, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="batch size must be >= 1, got 0"):
        draw_batch(prob, 0, rng, 0)
    for agent in (-1, 2):
        with pytest.raises(ValueError, match=f"agent {agent} out of range"):
            draw_batch(prob, agent, rng, 1)
        with pytest.raises(ValueError, match=f"agent {agent} out of range"):
            stochastic_gradient(prob, agent, np.zeros(2), np.array([0]))
    idx = draw_batch(prob, 1, rng, 7)
    assert idx.dtype == np.int64 and idx.shape == (7,)
    assert idx.min() >= prob.offsets[1] and idx.max() < prob.offsets[2]


def test_empirical_sigma_zero_for_identical_samples():
    A = np.tile(np.array([[1.0, 2.0]]), (4, 1))
    b = np.full(4, 3.0)
    prob = CompositeProblem("least_squares", A, b, [4])
    assert empirical_sigma_sq(prob, np.zeros((1, 2))) == 0.0


@settings(max_examples=40, deadline=None)
@given(v=st.floats(-3, 3), c=st.floats(0.05, 2.5), lam=st.floats(0, 2))
def test_prox_shrinks_toward_zero(v, c, lam):
    prob = single_sample_problem([1.0], 0.0, regularizer="l1", l1_weight=lam)
    u = prox_h(prob, np.array([v]), c)[0]
    assert abs(u) <= abs(v) + 1e-12
    assert u * v >= 0 or u == 0.0
